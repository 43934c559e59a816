//===- bench/ablation_pgo_layout.cpp - the pass-pipeline ablation ladder --------===//
//
// The summary's promise, measured as an ablation: profile each workload
// once (context + flow + HW metrics), then climb the pass ladder — off,
// layout, layout+superblock, layout+superblock+inline — re-running the
// uninstrumented program at each rung. All rungs share the single
// profiling run (the driver memoizes it) and differ only in the pass
// list handed to opt::runPipeline, so the deltas isolate each pass's
// contribution. This is the smallest instance of "compilers can use path
// profiles ... as an empirical basis for making optimization tradeoffs".
//
// Unlike bench/pgo_loop (which shrinks the simulated I-cache until
// placement matters), this table keeps the default machine: the suite
// fits the 16 KiB I-cache, so the expected result is the null one —
// behaviour preserved, cycles within noise — and that is worth printing.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "driver/RunKey.h"
#include "opt/Pass.h"
#include "profdb/Artifact.h"

#include <memory>

using namespace pp;
using namespace pp::bench;
using prof::Mode;

namespace {

/// The ladder's rungs, in cumulative order. Rung 0 is the baseline (no
/// passes); each later rung adds one pass to the previous rung's list.
struct Rung {
  const char *Variant; ///< RunKey ;opt= tag (and column header)
  std::vector<opt::PassKind> Passes;
};

const std::vector<Rung> &ladder() {
  static const std::vector<Rung> Rungs = {
      {"layout", {opt::PassKind::Layout}},
      {"layout+superblock",
       {opt::PassKind::Layout, opt::PassKind::Superblock}},
      {"layout+superblock+inline",
       {opt::PassKind::Layout, opt::PassKind::Superblock,
        opt::PassKind::Inline}},
  };
  return Rungs;
}

driver::RunPlan profilePlan(const workloads::WorkloadSpec &Spec) {
  driver::RunPlan Plan;
  Plan.Workload = Spec.Name;
  Plan.Scale = 1;
  Plan.Options.Config.M = Mode::ContextFlowHw;
  Plan.Options.Config.Pic0 = hw::Event::Cycles;
  Plan.Options.Config.Pic1 = hw::Event::ICacheMiss;
  return Plan;
}

} // namespace

int main() {
  std::printf("Ablation: the PGO pass ladder (off / layout / +superblock / "
              "+inline)\non the default machine — the suite fits the 16 KiB "
              "I-cache, so this is\nthe null-result control for "
              "bench/pgo_loop's small-cache measurement.\n\n");

  TableWriter Table;
  Table.setHeader({"Benchmark", "Cycles off", "layout", "+superblock",
                   "+inline", "Speedup"});
  SuiteAverager Averager;

  const std::vector<workloads::WorkloadSpec> &Suite = workloads::spec95Suite();
  const opt::PassOptions PassOpts;

  // Phase 1: one profiling run and the baseline per workload. The ladder
  // rungs all consume the same profile ticket.
  struct Tickets {
    size_t Profile, Off;
  };
  std::vector<Tickets> Declared;
  for (const workloads::WorkloadSpec &Spec : Suite)
    Declared.push_back({driver::defaultDriver().submit(profilePlan(Spec)),
                        submitWorkload(Spec, Mode::None)});

  // Phase 2: as each profile lands, package it as the artifact the
  // optimizer consumes and declare every rung's re-run.
  struct Pending {
    driver::OutcomePtr Off;
    std::vector<size_t> RungTickets;
  };
  std::vector<Pending> Reruns(Suite.size());
  for (size_t Index = 0; Index != Suite.size(); ++Index) {
    const workloads::WorkloadSpec &Spec = Suite[Index];
    Pending &P = Reruns[Index];
    P.Off = getRun(Declared[Index].Off, Spec.Name, Mode::None);
    driver::OutcomePtr Profile =
        getRun(Declared[Index].Profile, Spec.Name, Mode::ContextFlowHw);
    if (!P.Off || !Profile) {
      noteDegradedRow(Spec.Name);
      P.Off = nullptr;
      continue;
    }

    // Resolve the artifact against a pristine copy: the driver may have
    // restored the profile outcome from the cache, with no module.
    driver::RunPlan PPlan = profilePlan(Spec);
    auto Pristine = Spec.Build(1);
    auto Art = std::make_shared<const profdb::Artifact>(
        profdb::artifactFromOutcome(*Profile, *Pristine,
                                    driver::RunKey::of(PPlan).Fingerprint,
                                    Spec.Name, 1, PPlan.Options.Config));

    for (const Rung &R : ladder()) {
      driver::RunPlan Plan;
      Plan.Workload = Spec.Name;
      Plan.Scale = 1;
      Plan.Options.Config.M = Mode::None;
      Plan.OptVariant = R.Variant;
      // Deterministic given the (deterministic) profile, so the ;opt=
      // fingerprint dimension names the derived module and the run caches.
      Plan.Build = [Spec, Art, &R, &PassOpts] {
        auto Derived = Spec.Build(1);
        opt::ProfileView View;
        if (opt::ProfileView::build(*Art, *Derived, View) !=
            opt::ViewStatus::Ok)
          return std::unique_ptr<ir::Module>();
        if (!opt::runPipeline(*Derived, View, R.Passes, PassOpts).Ok)
          return std::unique_ptr<ir::Module>();
        return Derived;
      };
      P.RungTickets.push_back(driver::defaultDriver().submit(std::move(Plan)));
    }
  }

  // Phase 3: collect, check behaviour, render.
  for (size_t Index = 0; Index != Suite.size(); ++Index) {
    const workloads::WorkloadSpec &Spec = Suite[Index];
    const Pending &P = Reruns[Index];
    if (!P.Off)
      continue; // row already reported as degraded in phase 2
    std::vector<driver::OutcomePtr> Rungs;
    bool RowOk = true;
    for (size_t T : P.RungTickets) {
      driver::OutcomePtr After = getRun(T, Spec.Name, Mode::None);
      if (!After) {
        RowOk = false;
        break;
      }
      if (After->Result.ExitValue != P.Off->Result.ExitValue) {
        std::fprintf(stderr, "%s behaviour changed!\n", Spec.Name.c_str());
        return 1;
      }
      Rungs.push_back(std::move(After));
    }
    if (!RowOk) {
      noteDegradedRow(Spec.Name);
      continue;
    }
    const uint64_t Off = P.Off->total(hw::Event::Cycles);
    const uint64_t Full = Rungs.back()->total(hw::Event::Cycles);
    double Speedup = double(Off) / double(Full);
    Table.addRow({Spec.Name, std::to_string(Off),
                  std::to_string(Rungs[0]->total(hw::Event::Cycles)),
                  std::to_string(Rungs[1]->total(hw::Event::Cycles)),
                  std::to_string(Full), formatString("%.3f", Speedup)});
    Averager.add(Spec.Name, Spec.IsFloat, {Speedup});
  }
  Table.addSeparator();
  Table.addRow({"SPEC95 Avg", "", "", "", "",
                formatString("%.3f", Averager.average(true, true)[0])});
  std::printf("%s", Table.render().c_str());
  std::printf("\nThe workloads fit the default I-cache, so gains here are "
              "within noise;\nbench/pgo_loop re-measures the same ladder's "
              "endpoint under I-cache\npressure, where the pipeline's "
              "placement decisions become visible.\n");
  return 0;
}
