//===- bench/obs_overhead.cpp - cost of the observability layer ---------------===//
//
// Bounds what the always-compiled obs layer costs the pipeline it
// observes on the Table 1 run set (the full SPEC95-shaped suite under
// None, Flow and HW, Context and HW, Context and Flow, on a fresh serial
// scheduler). Recording sites are stage boundaries, never
// per-instruction, so the cost is the spans a pass records times what
// one span costs; timing whole passes with recording on and off cannot
// resolve it, because two passes on a shared host differ by far more.
// So the bench measures the two factors apart:
//
//   - the span count of one pass with recording on, read from the span
//     table (deterministic: it depends only on the submitted runs);
//   - the cost of one span, recorded into a span table as large as the
//     pass leaves, best of many batches (interference only ever adds
//     time, so the fastest batch is the cost).
//
// Their product over the fastest of several passes with recording off is
// the overhead ratio. The budget is 3%.
//
// Writes BENCH_obs_overhead.json (machine-readable; the committed copy
// at the repository root records the numbers this change was merged
// with) and exits non-zero when the overhead blows the budget.
//
//===----------------------------------------------------------------------===//

#include "driver/RunCache.h"
#include "driver/RunScheduler.h"
#include "obs/Obs.h"
#include "support/TableWriter.h"
#include "workloads/Spec.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

using namespace pp;
using prof::Mode;

namespace {

constexpr double BudgetRatio = 1.03;

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// One timed pass over the Table 1 run set: every suite workload under
/// the paper's four configurations, on a fresh memory-only cache and a
/// fresh serial scheduler (fresh so no pass reuses an earlier pass's
/// outcomes, serial so the measurement is not at the mercy of the
/// worker pool's scheduling).
double timeSuite(bool Enabled) {
  obs::setEnabled(Enabled);
  auto T0 = std::chrono::steady_clock::now();
  {
    driver::RunCache Cache("");
    driver::RunScheduler Sched(&Cache, 0);
    std::vector<size_t> Tickets;
    for (const workloads::WorkloadSpec &Spec : workloads::spec95Suite())
      for (Mode M : {Mode::None, Mode::FlowHw, Mode::ContextHw,
                     Mode::ContextFlow}) {
        driver::RunPlan Plan;
        Plan.Workload = Spec.Name;
        Plan.Scale = 1;
        Plan.Options.Config.M = M;
        Tickets.push_back(Sched.submit(std::move(Plan)));
      }
    for (size_t Ticket : Tickets) {
      driver::OutcomePtr Outcome = Sched.get(Ticket);
      if (!Outcome || !Outcome->Result.Ok) {
        std::fprintf(stderr, "obs_overhead: run failed: %s\n",
                     Outcome ? Outcome->Result.Error.c_str() : "no outcome");
        std::exit(1);
      }
    }
  }
  double Seconds = secondsSince(T0);
  obs::setEnabled(true);
  return Seconds;
}

/// Spans recorded since the last reset, and how many distinct (category,
/// name, label) rows they fill, read from the JSON report's span table.
void countSpans(uint64_t &Spans, uint64_t &Rows) {
  std::string Report = obs::renderJsonReport();
  static const char Key[] = "\"count\": ";
  Spans = Rows = 0;
  for (size_t At = Report.find(Key); At != std::string::npos;
       At = Report.find(Key, At + 1)) {
    Spans += std::strtoull(Report.c_str() + At + sizeof(Key) - 1, nullptr,
                           10);
    ++Rows;
  }
}

/// Host seconds per recorded span: batches of spans cycling over \p Rows
/// labels, each batch into a freshly reset recorder whose span table
/// already holds those rows (so every span is a lookup in a table of the
/// pass's size and an append to the trace buffer, which a batch never
/// fills). Best of \p Batches.
double timeSpan(uint64_t Rows, unsigned Batches) {
  const size_t BatchSpans =
      std::min<size_t>(1024, obs::configuredRingCapacity() / 2);
  std::vector<std::string> Labels;
  for (uint64_t Row = 0; Row != std::max<uint64_t>(Rows, 1); ++Row)
    Labels.push_back("workload-" + std::to_string(Row) + " contextflow");
  double Best = 1e9;
  for (unsigned Batch = 0; Batch != Batches; ++Batch) {
    obs::resetForTesting();
    for (const std::string &Label : Labels)
      obs::SpanScope Span("bench", "obs_overhead", Label);
    auto T0 = std::chrono::steady_clock::now();
    for (size_t Index = 0; Index != BatchSpans; ++Index)
      obs::SpanScope Span("bench", "obs_overhead",
                          Labels[Index % Labels.size()]);
    Best = std::min(Best, secondsSince(T0) / double(BatchSpans));
  }
  obs::resetForTesting();
  return Best;
}

std::string fmt(const char *Format, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), Format, Value);
  return Buf;
}

} // namespace

int main() {
  // The counting pass also warms the host caches.
  obs::resetForTesting();
  timeSuite(true);
  uint64_t Spans = 0, Rows = 0;
  countSpans(Spans, Rows);

  constexpr unsigned Passes = 3;
  double FastestPass = 1e9;
  for (unsigned Pass = 0; Pass != Passes; ++Pass)
    FastestPass = std::min(FastestPass, timeSuite(false));

  constexpr unsigned Batches = 200;
  double SpanSeconds = timeSpan(Rows, Batches);
  double Ratio = 1.0 + SpanSeconds * double(Spans) / FastestPass;

  TableWriter Table;
  Table.setHeader({"Spans/pass", "Span rows", "ns/span", "Fastest pass sec",
                   "Ratio"});
  Table.addRow({std::to_string(Spans), std::to_string(Rows),
                fmt("%.1f", SpanSeconds * 1e9), fmt("%.4f", FastestPass),
                fmt("%.5f", Ratio)});
  std::printf("Observability overhead on the Table 1 run set (span count x "
              "best-of-%u per-span cost over the fastest of %u passes, "
              "budget %.0f%%)\n\n%s\n",
              Batches, Passes, (BudgetRatio - 1.0) * 100,
              Table.render().c_str());

  std::ofstream Json("BENCH_obs_overhead.json");
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\n  \"bench\": \"obs_overhead\",\n"
                "  \"spans_per_pass\": %llu,\n"
                "  \"span_rows\": %llu,\n"
                "  \"span_batches\": %u,\n"
                "  \"span_seconds\": %.9f,\n"
                "  \"passes\": %u,\n"
                "  \"fastest_pass_sec\": %.6f,\n"
                "  \"overhead_ratio\": %.6f,\n"
                "  \"budget_ratio\": %.2f\n}\n",
                static_cast<unsigned long long>(Spans),
                static_cast<unsigned long long>(Rows), Batches, SpanSeconds,
                Passes, FastestPass, Ratio, BudgetRatio);
  Json << Buf;
  std::printf("wrote BENCH_obs_overhead.json (overhead %.3f%%)\n",
              (Ratio - 1.0) * 100);

  if (Spans == 0) {
    std::fprintf(stderr, "obs_overhead: the pass recorded no spans\n");
    return 1;
  }
  if (Ratio >= BudgetRatio) {
    std::fprintf(stderr,
                 "obs_overhead: overhead ratio %.4f exceeds the %.2f "
                 "budget\n",
                 Ratio, BudgetRatio);
    return 1;
  }
  return 0;
}
