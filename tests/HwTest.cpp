//===- tests/HwTest.cpp - caches, predictor, counters, machine ----------------===//

#include "hw/BranchPredictor.h"
#include "hw/CacheSim.h"
#include "hw/Machine.h"
#include "hw/MemoryImage.h"
#include "hw/PerfCounters.h"
#include "support/AddressLayout.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

using namespace pp;
using namespace pp::hw;

TEST(CacheSim, DirectMappedConflicts) {
  CacheSim Cache(dcacheDefault()); // 16 KB direct-mapped, 32 B lines
  // Two addresses 16 KB apart map to the same set and evict each other.
  EXPECT_TRUE(Cache.access(0x1000, 8));  // cold miss
  EXPECT_FALSE(Cache.access(0x1000, 8)); // hit
  EXPECT_TRUE(Cache.access(0x1000 + 16 * 1024, 8));
  EXPECT_TRUE(Cache.access(0x1000, 8)) << "conflict must evict";
}

TEST(CacheSim, TwoWayAvoidsPingPong) {
  CacheSim Cache(icacheDefault()); // 2-way
  EXPECT_TRUE(Cache.access(0x1000, 4));
  EXPECT_TRUE(Cache.access(0x1000 + 8 * 1024, 4)); // same set, other way
  EXPECT_FALSE(Cache.access(0x1000, 4));
  EXPECT_FALSE(Cache.access(0x1000 + 8 * 1024, 4));
  // A third conflicting line evicts the LRU way (0x1000 was used more
  // recently than its neighbour? both touched; LRU is the +8K line).
  EXPECT_TRUE(Cache.access(0x1000 + 16 * 1024, 4));
}

TEST(CacheSim, SpatialLocalityWithinLine) {
  CacheSim Cache(dcacheDefault());
  EXPECT_TRUE(Cache.access(0x2000, 8));
  EXPECT_FALSE(Cache.access(0x2008, 8));
  EXPECT_FALSE(Cache.access(0x201f, 1));
  EXPECT_TRUE(Cache.access(0x2020, 1)) << "next line is cold";
}

TEST(CacheSim, StraddlingAccessTouchesBothLines) {
  CacheSim Cache(dcacheDefault());
  EXPECT_TRUE(Cache.access(0x2000 + 30, 8)); // spans 0x2000 and 0x2020 lines
  EXPECT_FALSE(Cache.access(0x2000, 1));
  EXPECT_FALSE(Cache.access(0x2020, 1));
}

TEST(CacheSim, StraddlingAccessCountsEachMissedLine) {
  // Regression: a line-straddling access with both lines cold used to be
  // charged as one miss; the hardware's miss counter sees two line fills.
  CacheSim Cache(dcacheDefault());
  EXPECT_EQ(Cache.access(0x2000 + 30, 8), 2u);
  EXPECT_EQ(Cache.misses(), 2u);
  EXPECT_EQ(Cache.accesses(), 1u);
  // Now one line is warm, one cold: exactly one miss is charged.
  EXPECT_TRUE(Cache.access(0x203e, 4)); // spans 0x2020 (warm) and 0x2040
  EXPECT_EQ(Cache.access(0x205e, 4), 1u) << "0x2040 warm, 0x2060 cold";
  EXPECT_EQ(Cache.misses(), 4u);
  // Fully warm straddle: no misses.
  EXPECT_EQ(Cache.access(0x201e, 4), 0u);
}

TEST(CacheSim, CountersTrackAccessesAndMisses) {
  CacheSim Cache(dcacheDefault());
  Cache.access(0, 8);
  Cache.access(0, 8);
  Cache.access(64, 8);
  EXPECT_EQ(Cache.accesses(), 3u);
  EXPECT_EQ(Cache.misses(), 2u);
  Cache.reset();
  EXPECT_EQ(Cache.accesses(), 0u);
  EXPECT_TRUE(Cache.access(0, 8));
}

namespace {

/// A textbook LRU cache: one std::list of line numbers per set, most
/// recent first. No filter, no shortcut — the oracle CacheSim must match.
class LruOracle {
public:
  explicit LruOracle(const CacheConfig &Config)
      : Config(Config), Sets(Config.numSets()) {}

  unsigned access(uint64_t Addr, uint64_t Size) {
    unsigned Missed = 0;
    for (uint64_t Line = Addr / Config.LineBytes;
         Line <= (Addr + Size - 1) / Config.LineBytes; ++Line) {
      std::list<uint64_t> &Set = Sets[Line % Sets.size()];
      auto It = std::find(Set.begin(), Set.end(), Line);
      if (It != Set.end()) {
        Set.erase(It);
      } else {
        ++Missed;
        if (Set.size() == Config.Associativity)
          Set.pop_back();
      }
      Set.push_front(Line);
    }
    return Missed;
  }

private:
  CacheConfig Config;
  std::vector<std::list<uint64_t>> Sets;
};

} // namespace

TEST(CacheSim, MatchesAnLruOracleOnRandomStreams) {
  // Streams mix fresh addresses with repeats of recent ones (the MRU
  // filter's two cases: the last line again, and ping-pong between two),
  // and sizes that stay in one line or straddle two or three.
  const uint64_t Sizes[] = {1, 2, 4, 8, 8, 24, 40};
  for (unsigned Assoc : {1u, 2u, 4u, 8u}) {
    for (uint64_t Seed = 1; Seed != 9; ++Seed) {
      CacheConfig Config{1024, 16, Assoc};
      CacheSim Cache(Config);
      LruOracle Oracle(Config);
      Prng R(Seed * 7919 + Assoc);
      std::vector<uint64_t> Recent;
      for (unsigned Step = 0; Step != 20000; ++Step) {
        uint64_t Addr;
        if (!Recent.empty() && R.nextBelow(3) != 0)
          Addr = Recent[R.nextBelow(std::min<uint64_t>(Recent.size(), 4))] +
                 R.nextBelow(16);
        else
          Addr = R.nextBelow(16 * 1024);
        uint64_t Size = Sizes[R.nextBelow(std::size(Sizes))];
        Recent.insert(Recent.begin(), Addr);
        if (Recent.size() > 8)
          Recent.pop_back();
        ASSERT_EQ(Cache.access(Addr, Size), Oracle.access(Addr, Size))
            << "assoc " << Assoc << " seed " << Seed << " step " << Step
            << " addr " << Addr << " size " << Size;
      }
    }
  }
}

TEST(BranchPredictor, LearnsABias) {
  BranchPredictor Predictor;
  // Initially weakly not-taken: an always-taken branch mispredicts at most
  // twice, then stays correct.
  int Wrong = 0;
  for (int Round = 0; Round != 100; ++Round)
    if (!Predictor.predictConditional(0x4000, true))
      ++Wrong;
  EXPECT_LE(Wrong, 2);
  // Alternating branches are hard.
  int AltWrong = 0;
  for (int Round = 0; Round != 100; ++Round)
    if (!Predictor.predictConditional(0x5000, Round % 2 == 0))
      ++AltWrong;
  EXPECT_GE(AltWrong, 40);
}

TEST(BranchPredictor, IndirectTargetCache) {
  BranchPredictor Predictor;
  EXPECT_FALSE(Predictor.predictIndirect(0x6000, 0x100));
  EXPECT_TRUE(Predictor.predictIndirect(0x6000, 0x100));
  EXPECT_FALSE(Predictor.predictIndirect(0x6000, 0x200));
  EXPECT_TRUE(Predictor.predictIndirect(0x6000, 0x200));
}

TEST(PerfCounters, PicsWrapAt32Bits) {
  PerfCounters Counters;
  Counters.selectPicEvents(Event::Insts, Event::Cycles);
  Counters.count(Event::Insts, 0xffffffffULL);
  Counters.count(Event::Insts, 3);
  // PIC0 wrapped; the 64-bit total did not.
  EXPECT_EQ(Counters.readPics() & 0xffffffff, 2u);
  EXPECT_EQ(Counters.total(Event::Insts), 0x100000002ULL);
}

TEST(PerfCounters, WriteSetsBothPics) {
  PerfCounters Counters;
  Counters.selectPicEvents(Event::Insts, Event::Cycles);
  Counters.writePics((uint64_t(7) << 32) | 9);
  EXPECT_EQ(Counters.readPics(), (uint64_t(7) << 32) | 9);
  Counters.writePics(0);
  EXPECT_EQ(Counters.readPics(), 0u);
}

TEST(PerfCounters, ArmOverflowTrapProgramsTheWrap) {
  // Arming writes 2^32 - Period into the chosen PIC, so the trap fires
  // exactly when the 32-bit counter wraps — the UltraSPARC idiom.
  PerfCounters Counters;
  Counters.selectPicEvents(Event::Insts, Event::Cycles);
  Counters.armOverflowTrap(0, 1000);
  EXPECT_TRUE(Counters.overflowArmed());
  EXPECT_EQ(Counters.overflowPic(), 0u);
  EXPECT_EQ(Counters.overflowEvent(), Event::Insts);
  EXPECT_EQ(Counters.readPics() & 0xffffffff, 0x100000000ULL - 1000);
  EXPECT_FALSE(Counters.overflowPending());

  Counters.count(Event::Insts, 999);
  EXPECT_FALSE(Counters.overflowPending()) << "one event short of the wrap";
  Counters.count(Event::Insts, 1);
  EXPECT_TRUE(Counters.overflowPending()) << "the wrap crossed";

  Counters.disarmOverflowTrap();
  EXPECT_FALSE(Counters.overflowArmed());
  EXPECT_FALSE(Counters.overflowPending());
  Counters.count(Event::Insts, 1 << 20);
  EXPECT_FALSE(Counters.overflowPending()) << "disarmed traps never fire";
}

TEST(PerfCounters, ZeroPeriodArmsTheNextEventNotTheWrap) {
  // armOverflowTrap(pic, 0) used to write 2^32 - 0 = 0 into the PIC,
  // silently arming a trap 2^32 events away. A zero period clamps to 1:
  // the very next event fires the trap.
  PerfCounters Counters;
  Counters.selectPicEvents(Event::Insts, Event::Cycles);
  Counters.armOverflowTrap(0, 0);
  EXPECT_TRUE(Counters.overflowArmed());
  EXPECT_EQ(Counters.readPics() & 0xffffffff, 0xffffffffULL);
  EXPECT_FALSE(Counters.overflowPending());
  Counters.count(Event::Insts, 1);
  EXPECT_TRUE(Counters.overflowPending()) << "zero period must mean 1, not 2^32";
}

TEST(PerfCounters, OverflowTrapTracksUnarmedEventsNever) {
  // Events not routed to the armed PIC must not advance it toward the
  // trap.
  PerfCounters Counters;
  Counters.selectPicEvents(Event::Insts, Event::DCacheReadMiss);
  Counters.armOverflowTrap(1, 10);
  Counters.count(Event::Insts, 1 << 16);
  EXPECT_FALSE(Counters.overflowPending());
  Counters.count(Event::DCacheReadMiss, 10);
  EXPECT_TRUE(Counters.overflowPending());
}

TEST(PerfCounters, WritePicsAndResetRederiveTheTrapThreshold) {
  // wrpic and a totals reset both move the armed PIC out from under the
  // cached trap threshold; the threshold must follow the new distance to
  // the wrap rather than fire early or never.
  PerfCounters Counters;
  Counters.selectPicEvents(Event::Insts, Event::Cycles);
  Counters.armOverflowTrap(0, 1000);
  Counters.count(Event::Insts, 400);

  // Software rewinds the PIC: now 100 events from the wrap.
  Counters.writePics((Counters.readPics() & ~0xffffffffULL) |
                     (0x100000000ULL - 100));
  Counters.count(Event::Insts, 99);
  EXPECT_FALSE(Counters.overflowPending());
  Counters.count(Event::Insts, 1);
  EXPECT_TRUE(Counters.overflowPending());

  // Re-arm, then reset all totals: the armed distance survives the reset.
  Counters.armOverflowTrap(0, 50);
  Counters.resetTotals();
  Counters.count(Event::Insts, 49);
  EXPECT_FALSE(Counters.overflowPending());
  Counters.count(Event::Insts, 1);
  EXPECT_TRUE(Counters.overflowPending());
}

TEST(PerfCounters, UnselectedEventsDoNotTickPics) {
  PerfCounters Counters;
  Counters.selectPicEvents(Event::Insts, Event::Cycles);
  Counters.count(Event::FpStall, 10);
  EXPECT_EQ(Counters.readPics(), 0u);
  EXPECT_EQ(Counters.total(Event::FpStall), 10u);
}

TEST(PerfCounters, FetchCountFeedsInstsAndCycles) {
  // A fetch is one instruction and one base cycle, counted in the Fetched
  // word rather than the totals; every reader adds it in.
  PerfCounters Counters;
  Counters.selectPicEvents(Event::Cycles, Event::Insts);
  Counters.noteFetch();
  Counters.noteFetch();
  Counters.count(Event::Cycles, 5);
  Counters.count(Event::Insts, 1);
  EXPECT_EQ(Counters.fetched(), 2u);
  EXPECT_EQ(Counters.total(Event::Insts), 3u);
  EXPECT_EQ(Counters.total(Event::Cycles), 7u);
  EXPECT_EQ(Counters.total(Event::FpStall), 0u);
  EXPECT_EQ(Counters.readPics(), (uint64_t(3) << 32) | 7);

  // An engine that counted fetches elsewhere stores its count.
  Counters.setFetched(10);
  EXPECT_EQ(Counters.total(Event::Insts), 11u);
  EXPECT_EQ(Counters.total(Event::Cycles), 15u);

  // An overflow trap on a fetch-fed event fires on fetches alone.
  Counters.armOverflowTrap(1, 4);
  Counters.setFetched(13);
  EXPECT_FALSE(Counters.overflowPending());
  Counters.noteFetch();
  EXPECT_TRUE(Counters.overflowPending());

  Counters.resetTotals();
  EXPECT_EQ(Counters.fetched(), 0u);
  EXPECT_EQ(Counters.total(Event::Insts), 0u);
}

TEST(MemoryImage, PagesThatShareATlbSlotKeepTheirOwnBytes) {
  // More pages than the TLB has slots, so some must share one: the first
  // page of each region (their page numbers all end in zero bits), pages
  // 256 apart, and a dense run. Interleaved pokes and peeks must each see
  // their own page.
  MemoryImage Mem;
  std::vector<uint64_t> Addrs;
  for (uint64_t Base : {layout::CodeBase, layout::GlobalBase,
                        layout::HeapBase, layout::CctHeapBase,
                        layout::ProfStackBase})
    for (uint64_t Page = 0; Page != 4; ++Page)
      Addrs.push_back(Base + Page * 256 * MemoryImage::PageBytes + 8);
  for (uint64_t Page = 1024; Page != 1624; ++Page)
    Addrs.push_back(layout::HeapBase + Page * MemoryImage::PageBytes + 16);
  for (size_t Index = 0; Index != Addrs.size(); ++Index) {
    Mem.poke(Addrs[Index], 8, Index * 0x9e3779b97f4a7c15ULL);
    // Re-read an earlier page that may have been evicted from the slot.
    size_t Earlier = Index / 2;
    ASSERT_EQ(Mem.peek(Addrs[Earlier], 8), Earlier * 0x9e3779b97f4a7c15ULL);
  }
  for (size_t Index = Addrs.size(); Index-- != 0;)
    ASSERT_EQ(Mem.peek(Addrs[Index], 8), Index * 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(Mem.numPages(), Addrs.size());
}

TEST(MemoryImage, PeekOfAMissingPageAllocatesNothing) {
  MemoryImage Mem;
  Mem.poke(layout::GlobalBase, 8, 42);
  EXPECT_EQ(Mem.numPages(), 1u);
  for (uint64_t Page = 1; Page != 1000; ++Page)
    EXPECT_EQ(Mem.peek(layout::GlobalBase + Page * MemoryImage::PageBytes, 8),
              0u);
  EXPECT_EQ(Mem.numPages(), 1u);
  // A page first peeked as missing, then written, reads its new bytes.
  uint64_t Later = layout::HeapBase + 5 * MemoryImage::PageBytes;
  EXPECT_EQ(Mem.peek(Later, 4), 0u);
  Mem.poke(Later, 4, 0xabcd);
  EXPECT_EQ(Mem.peek(Later, 4), 0xabcdu);
  EXPECT_EQ(Mem.peek(layout::GlobalBase, 8), 42u);
  EXPECT_EQ(Mem.numPages(), 2u);
}

TEST(MemoryImage, ClearForgetsEveryPage) {
  MemoryImage Mem;
  for (uint64_t Page = 0; Page != 300; ++Page)
    Mem.poke(layout::GlobalBase + Page * MemoryImage::PageBytes, 8, Page + 1);
  Mem.clear();
  EXPECT_EQ(Mem.numPages(), 0u);
  for (uint64_t Page = 0; Page != 300; ++Page)
    ASSERT_EQ(Mem.peek(layout::GlobalBase + Page * MemoryImage::PageBytes, 8),
              0u);
  Mem.poke(layout::GlobalBase, 8, 7);
  EXPECT_EQ(Mem.peek(layout::GlobalBase, 8), 7u);
  EXPECT_EQ(Mem.numPages(), 1u);
}

TEST(MemoryImage, PeekPokeRoundTrip) {
  MemoryImage Mem;
  Mem.poke(0x1234, 8, 0x1122334455667788ULL);
  EXPECT_EQ(Mem.peek(0x1234, 8), 0x1122334455667788ULL);
  EXPECT_EQ(Mem.peek(0x1234, 4), 0x55667788u); // little endian
  EXPECT_EQ(Mem.peek(0x1238, 4), 0x11223344u);
  EXPECT_EQ(Mem.peek(0x9999, 8), 0u); // untouched memory reads zero
}

TEST(MemoryImage, CrossPageAccess) {
  MemoryImage Mem;
  uint64_t Addr = MemoryImage::PageBytes - 3;
  Mem.poke(Addr, 8, 0xa1b2c3d4e5f60718ULL);
  EXPECT_EQ(Mem.peek(Addr, 8), 0xa1b2c3d4e5f60718ULL);
  EXPECT_EQ(Mem.numPages(), 2u);
}

TEST(MemoryImage, PokeBytes) {
  MemoryImage Mem;
  uint8_t Data[] = {1, 2, 3, 4};
  Mem.pokeBytes(0x500, Data, 4);
  EXPECT_EQ(Mem.peek(0x500, 4), 0x04030201u);
}

TEST(Machine, InstAccountingAndICache) {
  Machine M;
  M.beginInst(0x1000);
  EXPECT_EQ(M.counters().total(Event::Insts), 1u);
  EXPECT_EQ(M.counters().total(Event::ICacheMiss), 1u);
  // Same line: no new I-miss.
  M.beginInst(0x1004);
  EXPECT_EQ(M.counters().total(Event::ICacheMiss), 1u);
  EXPECT_EQ(M.counters().total(Event::Insts), 2u);
}

TEST(Machine, LoadMissPenaltyAddsCycles) {
  Machine M;
  uint64_t Before = M.now();
  M.load(0x8000, 8); // cold miss
  uint64_t Penalty = M.cost().DCacheMissPenalty;
  EXPECT_EQ(M.now(), Before + Penalty);
  EXPECT_EQ(M.counters().total(Event::DCacheReadMiss), 1u);
  M.load(0x8000, 8); // hit: no cycles (loads pipeline)
  EXPECT_EQ(M.counters().total(Event::DCacheReadMiss), 1u);
}

TEST(Machine, StoreBufferStallsUnderBursts) {
  Machine M;
  // Repeated stores to one line with no intervening cycles eventually
  // exceed the buffer's drain rate.
  M.store(0x8000, 8, 1);
  for (int Round = 0; Round != 64; ++Round)
    M.store(0x8000, 8, Round);
  EXPECT_GT(M.counters().total(Event::StoreBufferStall), 0u);
}

TEST(Machine, TouchDataPerturbsTheCache) {
  Machine M;
  M.load(0x8000, 8); // warm the line
  EXPECT_EQ(M.counters().total(Event::DCacheReadMiss), 1u);
  // A charge-only touch to the conflicting address evicts it.
  M.touchData(0x8000 + 16 * 1024, 8, false);
  M.load(0x8000, 8);
  EXPECT_EQ(M.counters().total(Event::DCacheReadMiss), 3u);
}

TEST(Machine, MispredictStallsAccrue) {
  Machine M;
  uint64_t Before = M.counters().total(Event::MispredictStall);
  for (int Round = 0; Round != 10; ++Round)
    M.condBranch(0x1000, Round % 2 == 0);
  EXPECT_GT(M.counters().total(Event::MispredictStall), Before);
}
