//===- hw/CacheSim.cpp - Set-associative cache simulator --------------------===//

#include "hw/CacheSim.h"

#include <bit>

using namespace pp;
using namespace pp::hw;

CacheSim::CacheSim(const CacheConfig &Config) : Config(Config) {
  assert(std::has_single_bit(Config.LineBytes) && "line size must be 2^k");
  assert(Config.Associativity >= 1);
  NumSets = Config.numSets();
  assert(NumSets >= 1 && std::has_single_bit(NumSets) &&
         "set count must be a power of two");
  LineShift = static_cast<uint64_t>(std::countr_zero(Config.LineBytes));
  TagShift = static_cast<uint64_t>(std::countr_zero(NumSets));
  Tags.assign(NumSets * Config.Associativity, 0);
}

unsigned CacheSim::accessStraddle(uint64_t FirstLine, uint64_t LastLine) {
  // Lines are touched in ascending order, so the second-most-recent
  // distinct line after this access is LastLine - 1.
  PrevTouched = LastLine - 1;
  LastTouched = LastLine;
  unsigned MissedLines = 0;
  for (uint64_t Line = FirstLine; Line <= LastLine; ++Line)
    if (touchLine(Line))
      ++MissedLines;
  Misses += MissedLines;
  return MissedLines;
}

void CacheSim::reset() {
  Tags.assign(Tags.size(), 0);
  LastTouched = ~uint64_t(0);
  PrevTouched = ~uint64_t(0);
  Accesses = 0;
  Misses = 0;
}
