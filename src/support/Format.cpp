//===- support/Format.cpp - printf-style string formatting ---------------===//

#include "support/Format.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <vector>

using namespace pp;

std::string pp::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Needed < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::vector<char> Buffer(static_cast<size_t>(Needed) + 1);
  std::vsnprintf(Buffer.data(), Buffer.size(), Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return std::string(Buffer.data(), static_cast<size_t>(Needed));
}

std::string pp::formatEng(double Value) {
  if (Value < 0)
    return "-" + formatEng(-Value);
  if (Value < 100000.0)
    return formatString("%.0f", Value);
  int Exponent = static_cast<int>(std::floor(std::log10(Value)));
  double Mantissa = Value / std::pow(10.0, Exponent);
  return formatString("%.1fe%d", Mantissa, Exponent);
}

std::string pp::formatPercent(double Numerator, double Denominator) {
  if (Denominator == 0.0)
    return "0.0%";
  return formatString("%.1f%%", 100.0 * Numerator / Denominator);
}

std::string pp::formatRatio(double Value, double Base) {
  if (Base == 0.0)
    return "-";
  return formatString("%.2f", Value / Base);
}

bool pp::parseUint64(const char *Text, uint64_t &Out) {
  if (!Text || !*Text)
    return false;
  uint64_t Value = 0;
  for (const char *P = Text; *P; ++P) {
    if (*P < '0' || *P > '9')
      return false;
    unsigned Digit = static_cast<unsigned>(*P - '0');
    if (Value > (UINT64_MAX - Digit) / 10)
      return false; // overflow
    Value = Value * 10 + Digit;
  }
  Out = Value;
  return true;
}

bool pp::parseFlagUint64(const char *Tool, const char *Flag, const char *Text,
                         uint64_t Min, uint64_t Max, uint64_t &Out) {
  uint64_t Value = 0;
  if (parseUint64(Text, Value) && Value >= Min && Value <= Max) {
    Out = Value;
    return true;
  }
  std::fprintf(stderr, "%s: bad %s '%s' (want %llu..%llu)\n", Tool, Flag,
               Text, (unsigned long long)Min, (unsigned long long)Max);
  return false;
}
