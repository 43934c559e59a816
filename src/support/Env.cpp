//===- support/Env.cpp - Strict environment-knob parsing ----------------------===//

#include "support/Env.h"

#include "support/Format.h"

#include <cstdio>
#include <cstdlib>

using namespace pp;

EnvParse pp::envUint64(const char *Name, const char *Tool, uint64_t &Out) {
  const char *Text = std::getenv(Name);
  if (!Text || !*Text)
    return EnvParse::Unset;
  if (parseUint64(Text, Out))
    return EnvParse::Ok;
  std::fprintf(stderr, "%s: warning: ignoring non-numeric %s='%s'\n", Tool,
               Name, Text);
  return EnvParse::Malformed;
}

uint64_t pp::envUint64Or(const char *Name, const char *Tool,
                         uint64_t Default) {
  uint64_t Value;
  switch (envUint64(Name, Tool, Value)) {
  case EnvParse::Ok:
    return Value;
  case EnvParse::Unset:
  case EnvParse::Malformed:
    return Default;
  }
  return Default;
}

bool pp::envBoolOr(const char *Name, const char *Tool, bool Default) {
  const char *Text = std::getenv(Name);
  if (!Text || !*Text)
    return Default;
  if (!Text[1]) {
    if (Text[0] == '0')
      return false;
    if (Text[0] == '1')
      return true;
  }
  // PP_OBS=true once read as unset while PP_DRIVER_STATS=10 read as
  // set — both silently. Boolean knobs are as strict as numeric ones.
  std::fprintf(stderr,
               "%s: warning: ignoring non-boolean %s='%s' (want 0 or 1)\n",
               Tool, Name, Text);
  return Default;
}

bool pp::envFlag(const char *Name, const char *Tool) {
  return envBoolOr(Name, Tool, false);
}
