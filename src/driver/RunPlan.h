//===- driver/RunPlan.h - A declared experiment run ------------*- C++ -*-===//
///
/// \file
/// The unit of work of the experiment-driver layer: one (module, options)
/// profiling run, declared up front so the scheduler can execute it on any
/// worker thread and the cache can recognise it across binaries. Benches
/// and the PP tool build RunPlans instead of calling prof::runProfile
/// directly.
///
//===----------------------------------------------------------------------===//

#ifndef PP_DRIVER_RUNPLAN_H
#define PP_DRIVER_RUNPLAN_H

#include "prof/Session.h"

#include <functional>
#include <memory>
#include <string>

namespace pp {
namespace driver {

/// Shared, immutable view of a finished run. Outcomes are memoized — the
/// same object may back several tickets and several consumers, possibly on
/// different threads, so they are handed out read-only.
///
/// An outcome restored from the on-disk cache has no instrumented module
/// (Instr.M and every FunctionInstrInfo::F are null); everything else —
/// function names, totals, path/edge profiles, instrumentation metadata,
/// and the CCT — is reconstructed in full.
using OutcomePtr = std::shared_ptr<const prof::RunOutcome>;

/// One declared run.
struct RunPlan {
  /// The module's name: a workloads::spec95Suite() registry entry, or —
  /// when \p Build is set — a tag that uniquely identifies what Build
  /// constructs (it becomes part of the cache fingerprint).
  std::string Workload;
  /// Scale passed to the registry builder (ignored when Build is set,
  /// except as part of the fingerprint).
  int Scale = 1;
  /// The profiling configuration of the run.
  prof::SessionOptions Options;
  /// Custom module builder; null means "build Workload from the
  /// registry". Runs on a worker thread, so it must be self-contained and
  /// only read shared state.
  std::function<std::unique_ptr<ir::Module>()> Build;
  /// Clear this when Workload/Scale do not deterministically name the
  /// module's contents (e.g. a user-supplied input file); the run then
  /// bypasses the cache and duplicate-submission folding.
  bool Cacheable = true;
  /// Names the optimizer configuration that produced the module Build
  /// constructs ("layout", "layout+superblock+inline", ...); empty for
  /// unoptimized modules. Part of the fingerprint, so optimized and
  /// baseline runs of the same workload never collide in the cache.
  std::string OptVariant;
};

} // namespace driver
} // namespace pp

#endif // PP_DRIVER_RUNPLAN_H
