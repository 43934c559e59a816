//===- bench/Common.h - Shared experiment-harness helpers ------*- C++ -*-===//
///
/// \file
/// Helpers shared by the table/figure regeneration binaries: declaring
/// workload runs on the shared experiment driver (which executes them on
/// a worker pool and memoizes them across binaries), the CINT/CFP/SPEC
/// averaging rows of the paper's tables, and simulated-seconds formatting
/// (the paper reports wall-clock seconds of a 167 MHz UltraSPARC; we
/// report simulated cycles scaled the same way so the tables read alike).
///
/// The idiomatic bench shape is two loops: submit every run up front,
/// then collect and render in submission order. Workers execute the whole
/// run set behind the first get().
///
//===----------------------------------------------------------------------===//

#ifndef PP_BENCH_COMMON_H
#define PP_BENCH_COMMON_H

#include "analysis/PaperTables.h"
#include "driver/Driver.h"
#include "support/Format.h"
#include "support/TableWriter.h"
#include "workloads/Spec.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <string>
#include <vector>

namespace pp {
namespace bench {

/// The paper's machine: 167 MHz. Simulated cycles / ClockHz = "seconds".
inline constexpr double ClockHz = 167e6;

inline double simSeconds(uint64_t Cycles) {
  return double(Cycles) / ClockHz;
}

/// The \p P quantile of \p Samples (sorted in place), interpolated
/// between the two nearest ranks.
inline double percentile(std::vector<double> &Samples, double P) {
  std::sort(Samples.begin(), Samples.end());
  double Rank = P * static_cast<double>(Samples.size() - 1);
  size_t Low = static_cast<size_t>(Rank);
  size_t High = std::min(Low + 1, Samples.size() - 1);
  return Samples[Low] + (Rank - static_cast<double>(Low)) *
                            (Samples[High] - Samples[Low]);
}

/// Declares \p Name at \p Scale under \p M on the shared driver and
/// returns the ticket.
inline size_t submitWorkload(const workloads::WorkloadSpec &Spec,
                             prof::Mode M, int Scale = 1) {
  driver::RunPlan Plan;
  Plan.Workload = Spec.Name;
  Plan.Scale = Scale;
  Plan.Options.Config.M = M;
  return driver::defaultDriver().submit(std::move(Plan));
}

/// Collects a declared run. A failed run is reported on stderr and comes
/// back null: the bench skips that row (marking it degraded) and every
/// other row renders from its own run — one bad run degrades one table
/// entry instead of killing the whole regeneration.
inline driver::OutcomePtr getRun(size_t Ticket, const std::string &Name,
                                 prof::Mode M) {
  driver::OutcomePtr Run = driver::defaultDriver().get(Ticket);
  if (!Run || !Run->Result.Ok) {
    std::fprintf(stderr, "workload %s failed under %s: %s\n", Name.c_str(),
                 prof::modeName(M),
                 Run && !Run->Result.Error.empty()
                     ? Run->Result.Error.c_str()
                     : "no outcome");
    return nullptr;
  }
  return Run;
}

/// Marks a skipped table row on stderr; use with `continue` when getRun
/// returned null for any of a row's runs.
inline void noteDegradedRow(const std::string &Name) {
  std::fprintf(stderr, "row %s skipped (run failed); remaining rows are "
                       "unaffected\n",
               Name.c_str());
}

/// Runs \p Spec at \p Scale under \p M with default options; null on
/// failure (already reported). One-off convenience; prefer
/// submit-all-then-get.
inline driver::OutcomePtr runWorkload(const workloads::WorkloadSpec &Spec,
                                      prof::Mode M, int Scale = 1) {
  return getRun(submitWorkload(Spec, M, Scale), Spec.Name, M);
}

/// The suite averaging rows now live beside the table renderers; keep the
/// historical bench-namespace name working.
using analysis::SuiteAverager;

} // namespace bench
} // namespace pp

#endif // PP_BENCH_COMMON_H
