//===- hw/CacheSim.h - Set-associative cache simulator ---------*- C++ -*-===//
///
/// \file
/// A set-associative LRU cache simulator. The defaults model the measured
/// cache of the paper: the UltraSPARC's on-chip 16 KB direct-mapped L1 data
/// cache with 32-byte lines (§6.4.1); the instruction cache uses the
/// UltraSPARC's 16 KB 2-way configuration.
///
//===----------------------------------------------------------------------===//

#ifndef PP_HW_CACHESIM_H
#define PP_HW_CACHESIM_H

#include "support/Compiler.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace pp {
namespace hw {

/// Geometry of a cache.
struct CacheConfig {
  uint64_t SizeBytes = 16 * 1024;
  uint64_t LineBytes = 32;
  unsigned Associativity = 1;

  uint64_t numSets() const {
    return SizeBytes / (LineBytes * Associativity);
  }
};

/// Returns the UltraSPARC-like L1 D-cache geometry (16 KB direct-mapped,
/// 32 B lines).
inline CacheConfig dcacheDefault() { return CacheConfig{16 * 1024, 32, 1}; }

/// Returns the UltraSPARC-like L1 I-cache geometry (16 KB 2-way, 32 B
/// lines).
inline CacheConfig icacheDefault() { return CacheConfig{16 * 1024, 32, 2}; }

/// Simulates hits and misses; contents are not stored (data lives in the
/// memory image).
class CacheSim {
public:
  explicit CacheSim(const CacheConfig &Config);

  const CacheConfig &config() const { return Config; }

  /// Touches every line the [Addr, Addr + Size) access covers and returns
  /// the number of lines that missed (0 = all hit). An access that
  /// straddles a line boundary touches both lines, and each missing line
  /// counts — two cold lines are two misses, exactly as the hardware's
  /// miss counter would see them.
  ///
  /// Inline, LRU walk included: this runs for most simulated
  /// instructions (the I-cache probe in Machine::probeFetch) plus once per
  /// memory access, so the call is the hottest edge in the whole
  /// simulator.
  PP_ALWAYS_INLINE unsigned access(uint64_t Addr, uint64_t Size) {
    assert(Size >= 1);
    ++Accesses;
    uint64_t FirstLine = Addr >> LineShift;
    uint64_t LastLine = (Addr + Size - 1) >> LineShift;
    if (FirstLine == LastLine) {
      // A repeat of the immediately-preceding line is always a hit, and
      // skipping the LRU update is sound: consecutive touches of one line
      // cannot reorder it relative to any other line in the set, so every
      // future victim choice is unchanged. This catches the long
      // straight-line runs of the I-cache (eight 4-byte fetches per line).
      if (FirstLine == LastTouched)
        return 0;
      // Second MRU entry: if the line before that repeats AND it maps to a
      // different set than the intervening line, its set has not been
      // touched since, so it is still resident and still the most recent
      // in its set — the touch can be skipped without changing any future
      // victim choice. This catches two-line ping-pong patterns: a loop
      // body spanning a line boundary, or alternating-array data streams.
      if (FirstLine == PrevTouched &&
          (FirstLine & (NumSets - 1)) != (LastTouched & (NumSets - 1))) {
        PrevTouched = LastTouched;
        LastTouched = FirstLine;
        return 0;
      }
      PrevTouched = LastTouched;
      LastTouched = FirstLine;
      if (!touchLine(FirstLine))
        return 0;
      ++Misses;
      return 1;
    }
    return accessStraddle(FirstLine, LastLine);
  }

  /// Empties the cache.
  void reset();

  uint64_t accesses() const { return Accesses; }
  uint64_t misses() const { return Misses; }

private:
  /// Line-straddling access: touch every covered line, count each miss.
  unsigned accessStraddle(uint64_t FirstLine, uint64_t LastLine);

  /// LRU-touches one line and returns true if it missed. Each set's ways
  /// are held most recent first: a hit moves its tag to the front, a miss
  /// shifts every way back one (evicting the last) and enters at the
  /// front. The set so holds exactly the N most recent distinct lines
  /// that map to it, which is LRU without a stamp or clock to keep.
  PP_ALWAYS_INLINE bool touchLine(uint64_t LineAddr) {
    uint64_t *Ways = &Tags[(LineAddr & (NumSets - 1)) * Config.Associativity];
    // Shift so a valid tag can never collide with the 0 invalid marker.
    uint64_t Tag = (LineAddr >> TagShift) + 1;
    if (Ways[0] == Tag)
      return false;
    uint64_t Moving = Ways[0];
    for (unsigned Way = 1; Way != Config.Associativity; ++Way) {
      uint64_t Here = Ways[Way];
      Ways[Way] = Moving;
      if (Here == Tag) {
        Ways[0] = Tag;
        return false;
      }
      Moving = Here;
    }
    Ways[0] = Tag;
    return true;
  }

  CacheConfig Config;
  uint64_t NumSets;
  uint64_t LineShift;
  uint64_t TagShift;
  /// Tags[set * Assoc + way], most recently used way first; 0 is
  /// "invalid" (tag values are shifted so a real tag is never 0).
  std::vector<uint64_t> Tags;
  /// The last two distinct lines touched, most recent first (MRU filter).
  uint64_t LastTouched = ~uint64_t(0);
  uint64_t PrevTouched = ~uint64_t(0);
  uint64_t Accesses = 0;
  uint64_t Misses = 0;
};

} // namespace hw
} // namespace pp

#endif // PP_HW_CACHESIM_H
