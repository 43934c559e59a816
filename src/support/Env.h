//===- support/Env.h - Strict environment-knob parsing ---------*- C++ -*-===//
///
/// \file
/// The one place numeric environment knobs are read. Every knob goes
/// through the strict parseUint64 (whole string must be digits), so a
/// typo like PP_DRIVER_THREADS=max warns on stderr and falls back to the
/// caller's default instead of silently parsing as 0 — which for thread
/// counts means "serial", the wrong thing to do quietly.
///
//===----------------------------------------------------------------------===//

#ifndef PP_SUPPORT_ENV_H
#define PP_SUPPORT_ENV_H

#include <cstdint>

namespace pp {

/// What reading a numeric environment variable found.
enum class EnvParse {
  Unset,     ///< not set (or set to the empty string)
  Ok,        ///< parsed strictly; \p Out holds the value
  Malformed, ///< set but not a pure decimal number; a warning was printed
};

/// Reads \p Name as a strict unsigned decimal. On success \p Out holds
/// the value; a malformed value warns on stderr as
/// "<Tool>: warning: ignoring non-numeric <Name>='<value>'" and leaves
/// \p Out untouched.
EnvParse envUint64(const char *Name, const char *Tool, uint64_t &Out);

/// Reads \p Name as a strict unsigned decimal, falling back to
/// \p Default when unset; a malformed value warns on stderr (including
/// the default being kept) and returns \p Default.
uint64_t envUint64Or(const char *Name, const char *Tool, uint64_t Default);

/// Reads \p Name as a strict boolean knob: only "0" and "1" are
/// accepted. Unset (or empty) returns \p Default; any other value —
/// "true", "yes", "10" — warns on stderr as
/// "<Tool>: warning: ignoring non-boolean <Name>='<value>' (want 0 or 1)"
/// and returns \p Default, matching the strict-numeric discipline of
/// envUint64.
bool envBoolOr(const char *Name, const char *Tool, bool Default);

/// envBoolOr with a false default (the repo's flag convention:
/// PP_DRIVER_STATS=1).
bool envFlag(const char *Name, const char *Tool = "pp");

} // namespace pp

#endif // PP_SUPPORT_ENV_H
