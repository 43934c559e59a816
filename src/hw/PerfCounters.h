//===- hw/PerfCounters.h - Hardware performance counters -------*- C++ -*-===//
///
/// \file
/// The counter architecture the paper programs (§3, §5.1): the machine
/// counts many event kinds, and two *program-accessible* 32-bit registers
/// (PIC0/PIC1) can each be mapped to one event and read or written quickly
/// from user code. The 32-bit width wraps, which is why PP measures short
/// intraprocedural paths and accumulates into 64-bit memory counters.
///
/// Separately from the PICs, the full 64-bit per-event totals are always
/// maintained; the experiment harness reads them as the "uninstrumented
/// baseline" ground truth (standing in for the paper's 6-second sampling of
/// an uninstrumented run).
///
/// The fetch count contract. Every fetched instruction costs one
/// instruction and one base cycle. Those two counts are not added into
/// the totals one by one: they live in a single Fetched word, which
/// total(), readPics() and overflowPending() add in for Insts and Cycles
/// (so cycles = Fetched + every charged cycle). Whoever fetches owns the
/// word. Machine::beginInst bumps it (the reference engine); the threaded
/// engine counts fetches in a register and stores the running count with
/// setFetched() before anything that can read a total runs — a load,
/// store, FP op, PIC access, profiling hook, call/return/longjmp, tracer
/// callback, signal or trap delivery, and the end of the run.
///
//===----------------------------------------------------------------------===//

#ifndef PP_HW_PERFCOUNTERS_H
#define PP_HW_PERFCOUNTERS_H

#include "hw/Event.h"
#include "support/Compiler.h"

#include <array>
#include <cstdint>

namespace pp {
namespace hw {

/// Event totals plus the two program-visible PIC registers.
class PerfCounters {
public:
  PerfCounters() { Totals.fill(0); }

  /// Selects which events the two PICs observe (the PCR write on a real
  /// UltraSPARC, performed by the profiler before the run).
  void selectPicEvents(Event Pic0, Event Pic1) {
    // Re-anchor so each PIC keeps its current value but follows the new
    // event from here on.
    Pic0Base = pic0();
    Pic1Base = pic1();
    Pic0Event = Pic0;
    Pic1Event = Pic1;
    Pic0Snap = total(Pic0Event);
    Pic1Snap = total(Pic1Event);
    refreshTrapThreshold();
  }

  Event pic0Event() const { return Pic0Event; }
  Event pic1Event() const { return Pic1Event; }

  /// Adds \p N occurrences of \p E. This is the hottest operation in the
  /// whole simulator (several calls per simulated instruction), so the
  /// PICs are not maintained here: each PIC is materialised on read from
  /// its event's 64-bit total relative to a snapshot taken at the last
  /// write. Truncating the difference to 32 bits yields exactly the
  /// wrap-at-32-bits behaviour of incrementing a 32-bit register.
  PP_ALWAYS_INLINE void count(Event E, uint64_t N) {
    Totals[static_cast<unsigned>(E)] += N;
  }

  /// Full-width ground-truth total for \p E.
  uint64_t total(Event E) const {
    return Totals[static_cast<unsigned>(E)] + (Fetched & fetchMask(E));
  }

  /// Instructions fetched so far (each one instruction and one base cycle
  /// of the Insts and Cycles totals).
  uint64_t fetched() const { return Fetched; }
  /// One more fetched instruction (Machine::beginInst).
  PP_ALWAYS_INLINE void noteFetch() { ++Fetched; }
  /// Stores the fetch count an engine kept elsewhere (see the contract in
  /// the file comment).
  PP_ALWAYS_INLINE void setFetched(uint64_t N) { Fetched = N; }

  /// The rd-of-both-PICs instruction: PIC0 in the low, PIC1 in the high
  /// 32 bits.
  uint64_t readPics() const {
    return uint64_t(pic0()) | (uint64_t(pic1()) << 32);
  }

  /// The wr-of-both-PICs instruction.
  void writePics(uint64_t Value) {
    Pic0Base = static_cast<uint32_t>(Value);
    Pic1Base = static_cast<uint32_t>(Value >> 32);
    Pic0Snap = total(Pic0Event);
    Pic1Snap = total(Pic1Event);
    refreshTrapThreshold();
  }

  void resetTotals() {
    // Keep the program-visible PIC values across the reset, as before.
    Pic0Base = pic0();
    Pic1Base = pic1();
    Totals.fill(0);
    Fetched = 0;
    Pic0Snap = 0;
    Pic1Snap = 0;
    refreshTrapThreshold();
  }

  // --- Counter-overflow traps (the PCR.OVF programming the paper's §3
  // machine exposes but its instrumentation never needed) -------------------

  /// Arms an overflow trap on PIC \p Pic: the register is written to
  /// 2^32 - Period, so after \p Period more occurrences of its event the
  /// 32-bit value wraps past zero and a trap becomes pending. The VM
  /// delivers pending traps at the next instruction boundary. Arming is a
  /// privileged register write, not a new counting mechanism: the PIC
  /// value really changes, exactly as wrpic would change it.
  ///
  /// A zero period is clamped to 1: writing 2^32 - 0 would wrap the
  /// register all the way around, silently arming a 2^32-event trap that
  /// in practice never fires.
  void armOverflowTrap(unsigned Pic, uint32_t Period) {
    if (Period == 0)
      Period = 1;
    TrapPic = Pic;
    TrapArmed = true;
    uint32_t Start = static_cast<uint32_t>(0) - Period;
    if (Pic == 0) {
      Pic0Base = Start;
      Pic0Snap = total(Pic0Event);
    } else {
      Pic1Base = Start;
      Pic1Snap = total(Pic1Event);
    }
    refreshTrapThreshold();
  }

  /// Drops the armed trap (delivery does this implicitly; the handler
  /// re-arms to keep sampling).
  void disarmOverflowTrap() {
    TrapArmed = false;
    TrapThreshold = UINT64_MAX;
  }

  bool overflowArmed() const { return TrapArmed; }
  unsigned overflowPic() const { return TrapPic; }
  Event overflowEvent() const { return TrapPic == 0 ? Pic0Event : Pic1Event; }

  /// True once the armed PIC has wrapped. One load and one compare — when
  /// disarmed the threshold is UINT64_MAX, so the hot path needs no
  /// separate armed flag.
  PP_ALWAYS_INLINE bool overflowPending() const {
    return Totals[TrapEventIdx] + (Fetched & TrapFetchMask) >= TrapThreshold;
  }

private:
  /// Re-derives the trap-fire point after anything that moves the armed
  /// PIC's value or event: the trap fires when the register wraps, i.e.
  /// after (2^32 - current value) more events.
  void refreshTrapThreshold() {
    if (!TrapArmed)
      return;
    Event E = TrapPic == 0 ? Pic0Event : Pic1Event;
    uint32_t Cur = TrapPic == 0 ? pic0() : pic1();
    uint64_t Remaining = (uint64_t(1) << 32) - Cur;
    TrapEventIdx = static_cast<unsigned>(E);
    TrapFetchMask = fetchMask(E);
    TrapThreshold = total(E) + Remaining;
  }

  /// All ones for the events a fetch counts (Insts, Cycles), else zero.
  static uint64_t fetchMask(Event E) {
    return E == Event::Insts || E == Event::Cycles ? ~uint64_t(0) : 0;
  }

  uint32_t pic0() const {
    return static_cast<uint32_t>(Pic0Base + (total(Pic0Event) - Pic0Snap));
  }
  uint32_t pic1() const {
    return static_cast<uint32_t>(Pic1Base + (total(Pic1Event) - Pic1Snap));
  }

  std::array<uint64_t, NumEvents> Totals;
  /// Fetched instructions, not yet in Totals[Insts] or Totals[Cycles].
  uint64_t Fetched = 0;
  Event Pic0Event = Event::Cycles;
  Event Pic1Event = Event::Insts;
  /// PIC value at the last write/select/reset anchor point...
  uint32_t Pic0Base = 0;
  uint32_t Pic1Base = 0;
  /// ...and the observed event's total at that same moment.
  uint64_t Pic0Snap = 0;
  uint64_t Pic1Snap = 0;
  /// Overflow-trap state: the armed PIC's event total at which the 32-bit
  /// register wraps (UINT64_MAX while disarmed, so overflowPending() stays
  /// a single compare), and which PIC/event is armed.
  uint64_t TrapThreshold = UINT64_MAX;
  unsigned TrapEventIdx = 0;
  uint64_t TrapFetchMask = 0;
  unsigned TrapPic = 0;
  bool TrapArmed = false;
};

} // namespace hw
} // namespace pp

#endif // PP_HW_PERFCOUNTERS_H
