//===- support/Format.h - printf-style string formatting ------*- C++ -*-===//
///
/// \file
/// Small printf-style formatting helpers used by reports and diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef PP_SUPPORT_FORMAT_H
#define PP_SUPPORT_FORMAT_H

#include <cstdint>
#include <string>

namespace pp {

/// Returns the printf-style formatting of the arguments as a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats \p Value with engineering notation similar to the paper's tables
/// (e.g. 1.1e7 for 11,000,000; plain digits below 100,000).
std::string formatEng(double Value);

/// Formats \p Numerator / \p Denominator as a percentage with one decimal
/// ("42.0%"); returns "0.0%" when the denominator is zero.
std::string formatPercent(double Numerator, double Denominator);

/// Formats a ratio with two decimals ("1.23"); "-" when the base is zero.
std::string formatRatio(double Value, double Base);

/// Strictly parses \p Text as an unsigned decimal integer: the whole string
/// must be digits (no sign, no whitespace, no trailing characters) and the
/// value must fit in 64 bits. Returns false otherwise, leaving \p Out
/// untouched. Environment knobs use this so a typo degrades to the default
/// with a warning instead of silently parsing as 0.
bool parseUint64(const char *Text, uint64_t &Out);

/// Parses \p Text, the value of \p Tool's command-line flag \p Flag, as
/// a parseUint64 decimal in [Min, Max]. Anything else prints
/// "<Tool>: bad <Flag> '<Text>' (want <Min>..<Max>)" on stderr and
/// returns false, leaving \p Out untouched.
bool parseFlagUint64(const char *Tool, const char *Flag, const char *Text,
                     uint64_t Min, uint64_t Max, uint64_t &Out);

} // namespace pp

#endif // PP_SUPPORT_FORMAT_H
