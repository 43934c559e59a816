//===- prof/Mode.h - Profiling modes and configuration ---------*- C++ -*-===//
///
/// \file
/// The profiling modes PP supports and the knobs of a profiling run. The
/// three headline modes match the paper's Table 1 columns — Flow and HW,
/// Context and HW, Context and Flow — plus frequency-only flow profiling,
/// context-only profiling, and the classic edge-profiling baseline (§6.1
/// compares against it).
///
//===----------------------------------------------------------------------===//

#ifndef PP_PROF_MODE_H
#define PP_PROF_MODE_H

#include "bl/InstrumentationPlan.h"
#include "hw/Event.h"

#include <functional>

namespace pp {
namespace ir {
class Function;
} // namespace ir

namespace prof {

/// What to instrument and record.
enum class Mode {
  /// No instrumentation (the baseline run).
  None,
  /// Knuth-style edge profiling on spanning-tree chords (qpt baseline).
  Edge,
  /// Intraprocedural path frequencies only ([BL96]).
  Flow,
  /// Path frequencies plus two hardware metrics per path ("Flow and HW").
  FlowHw,
  /// Calling context tree with invocation counts only.
  Context,
  /// CCT with two hardware metrics per call record ("Context and HW").
  ContextHw,
  /// CCT with per-record path frequencies ("Context and Flow"; the paper's
  /// approximation of interprocedural path profiling).
  ContextFlow,
  /// The full combination: per-record path frequencies plus two hardware
  /// metrics per (context, path) pair — hardware measurements at
  /// interprocedural-path precision.
  ContextFlowHw,
};

/// Short mode label for reports.
const char *modeName(Mode M);

inline bool modeUsesPaths(Mode M) {
  return M == Mode::Flow || M == Mode::FlowHw || M == Mode::ContextFlow ||
         M == Mode::ContextFlowHw;
}
inline bool modeUsesCct(Mode M) {
  return M == Mode::Context || M == Mode::ContextHw ||
         M == Mode::ContextFlow || M == Mode::ContextFlowHw;
}
inline bool modeUsesHw(Mode M) {
  return M == Mode::FlowHw || M == Mode::ContextHw ||
         M == Mode::ContextFlowHw;
}
/// True when path counters live in per-CCT-record tables instead of one
/// table per function.
inline bool modeUsesPerRecordPaths(Mode M) {
  return M == Mode::ContextFlow || M == Mode::ContextFlowHw;
}

/// Configuration of one profiling run.
struct ProfileConfig {
  Mode M = Mode::FlowHw;
  /// Events routed to the two PICs in the HW modes.
  hw::Event Pic0 = hw::Event::Insts;
  hw::Event Pic1 = hw::Event::DCacheReadMiss;
  /// Path-probe placement options.
  bl::PlanOptions Plan;
  /// Window size for multi-iteration (k-BL) path profiling: paths may span
  /// up to K loop iterations (K-1 back edges). 1 is classic Ball-Larus and
  /// keeps every fingerprint, profile, and report byte-identical; K >= 2
  /// requires Flow or FlowHw mode with the exact acquisition engine.
  /// Per-function, the numbering ladder falls back K -> K-1 -> ... -> 1
  /// (then edge profiling) when the path count overflows 2^62; the level
  /// actually chosen is recorded in FunctionInstrInfo::KIters.
  unsigned K = 1;
  /// Distinguish call sites in the CCT (the paper's default; disabling
  /// aggregates per (caller, callee) pair — the §4.1 space/precision
  /// trade-off, measured by the ablation bench).
  bool DistinguishCallSites = true;
  /// Predicate selecting which functions to instrument (null = all). The
  /// CCT protocol tolerates uninstrumented procedures via gCSP
  /// save/restore, which the tests exercise.
  std::function<bool(const ir::Function &)> ShouldInstrument;

  bool shouldInstrument(const ir::Function &F) const {
    return !ShouldInstrument || ShouldInstrument(F);
  }
};

} // namespace prof
} // namespace pp

#endif // PP_PROF_MODE_H
