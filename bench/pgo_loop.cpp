//===- bench/pgo_loop.cpp - the closed profile-guided-optimization loop --------===//
//
// The paper's motivating application, closed end to end: profile each
// workload (context + flow + HW metrics, PIC0=cycles PIC1=I-cache
// misses), package the outcome as the same .ppa artifact pp-opt consumes,
// run the full pass pipeline (layout, superblock, inline) over a pristine
// copy of the program, and re-measure the optimized module — on BOTH VM
// engines, asserting bit-identical behaviour — to report the speedup the
// optimizer actually delivered, not the one it predicted.
//
// The suite workloads fit the default 16 KiB simulated I-cache entirely
// (compulsory misses only), which would hide every layout decision; all
// runs here therefore use a small direct-mapped I-cache (256 bytes of
// 64-byte lines), the same machine for baseline and optimized runs, so the
// comparison stays fair while capacity and conflict misses make
// placement visible. (ablation_pgo_layout keeps the
// default machine and shows the fits-in-cache null result.)
//
// Writes BENCH_pgo_loop.json; with --check it exits non-zero unless at
// least MinImproved workloads — 130.li among them — improved BOTH total
// cycles and I-cache misses, the regression tripwire CI runs.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "driver/RunKey.h"
#include "opt/Pass.h"
#include "profdb/Artifact.h"

#include <cstring>
#include <fstream>
#include <memory>

using namespace pp;
using namespace pp::bench;
using prof::Mode;

namespace {

/// Workloads that must improve on both metrics for --check to pass.
constexpr size_t MinImproved = 3;
constexpr const char *LiWorkload = "130.li";

/// The loop's machine: default costs, default D-cache, but a small
/// direct-mapped I-cache so block placement has observable consequences.
hw::MachineConfig pgoMachine() {
  hw::MachineConfig Cfg;
  Cfg.ICache = hw::CacheConfig{256, 64, 1};
  return Cfg;
}

/// The profiling run: context + flow + the two events the optimizer (and
/// this bench's report) are denominated in.
driver::RunPlan profilePlan(const workloads::WorkloadSpec &Spec) {
  driver::RunPlan Plan;
  Plan.Workload = Spec.Name;
  Plan.Scale = 1;
  Plan.Options.Config.M = Mode::ContextFlowHw;
  Plan.Options.Config.Pic0 = hw::Event::Cycles;
  Plan.Options.Config.Pic1 = hw::Event::ICacheMiss;
  Plan.Options.MachineCfg = pgoMachine();
  return Plan;
}

/// An uninstrumented measurement run on \p Eng; \p OptVariant tags (and
/// fingerprints) optimized reruns, empty means baseline. The engine is not
/// part of the run's identity, so a reference-engine plan is uncacheable:
/// otherwise it would fold onto (or be served from the cache entry of)
/// the threaded run, and the engine differential would compare an
/// outcome with itself.
driver::RunPlan measurePlan(const workloads::WorkloadSpec &Spec,
                            vm::Engine Eng, const std::string &OptVariant) {
  driver::RunPlan Plan;
  Plan.Workload = Spec.Name;
  Plan.Scale = 1;
  Plan.Options.Config.M = Mode::None;
  Plan.Options.MachineCfg = pgoMachine();
  Plan.Options.Engine = Eng;
  Plan.Cacheable = Eng != vm::Engine::Reference;
  Plan.OptVariant = OptVariant;
  return Plan;
}

struct Row {
  std::string Workload;
  unsigned BlocksDuplicated = 0;
  unsigned SitesInlined = 0;
  uint64_t CyclesBefore = 0, CyclesAfter = 0;
  uint64_t IcBefore = 0, IcAfter = 0;
  bool Improved = false;
};

} // namespace

int main(int Argc, char **Argv) {
  bool Check = false;
  for (int Index = 1; Index != Argc; ++Index) {
    if (std::strcmp(Argv[Index], "--check") == 0) {
      Check = true;
    } else {
      std::fprintf(stderr, "pgo_loop: unknown option '%s'\n", Argv[Index]);
      return 1;
    }
  }

  const hw::CacheConfig ICache = pgoMachine().ICache;
  std::printf("PGO loop: profile -> optimize (layout,superblock,inline) -> "
              "re-measure\n(%llu-byte %u-way I-cache; both engines re-run "
              "and compared)\n\n",
              (unsigned long long)ICache.SizeBytes, ICache.Associativity);

  const std::vector<workloads::WorkloadSpec> &Suite = workloads::spec95Suite();
  const std::vector<opt::PassKind> Passes = {
      opt::PassKind::Layout, opt::PassKind::Superblock, opt::PassKind::Inline};
  const opt::PassOptions PassOpts;
  const std::string Variant = "layout+superblock+inline";

  // Phase 1: one profiling run and two baseline engine runs per workload.
  struct Tickets {
    size_t Profile, BaseRef, BaseThr;
  };
  std::vector<Tickets> Declared;
  for (const workloads::WorkloadSpec &Spec : Suite)
    Declared.push_back(
        {driver::defaultDriver().submit(profilePlan(Spec)),
         driver::defaultDriver().submit(
             measurePlan(Spec, vm::Engine::Reference, "")),
         driver::defaultDriver().submit(
             measurePlan(Spec, vm::Engine::Threaded, ""))});

  // Phase 2: as each profile lands, package it as the artifact pp-opt
  // consumes, run the pipeline once here (for its stats, and to refuse
  // early), and declare the optimized re-runs on both engines.
  struct Pending {
    driver::OutcomePtr BaseRef, BaseThr;
    opt::PipelineResult Pipeline;
    size_t OptRef = 0, OptThr = 0;
    bool Ok = false;
  };
  std::vector<Pending> Reruns(Suite.size());
  for (size_t Index = 0; Index != Suite.size(); ++Index) {
    const workloads::WorkloadSpec &Spec = Suite[Index];
    Pending &P = Reruns[Index];
    P.BaseRef = getRun(Declared[Index].BaseRef, Spec.Name, Mode::None);
    P.BaseThr = getRun(Declared[Index].BaseThr, Spec.Name, Mode::None);
    driver::OutcomePtr Profile =
        getRun(Declared[Index].Profile, Spec.Name, Mode::ContextFlowHw);
    if (!P.BaseRef || !P.BaseThr || !Profile) {
      noteDegradedRow(Spec.Name);
      continue;
    }

    // The artifact is resolved against (and the pipeline run over) fresh
    // pristine copies — the driver may have restored the profile outcome
    // from the cache, where it carries no module.
    driver::RunPlan PPlan = profilePlan(Spec);
    auto Pristine = Spec.Build(1);
    auto Art = std::make_shared<const profdb::Artifact>(
        profdb::artifactFromOutcome(*Profile, *Pristine,
                                    driver::RunKey::of(PPlan).Fingerprint,
                                    Spec.Name, 1, PPlan.Options.Config));

    auto Optimize = [&Spec, Art,
                     &Passes, &PassOpts](opt::PipelineResult *StatsOut)
        -> std::unique_ptr<ir::Module> {
      auto Derived = Spec.Build(1);
      opt::ProfileView View;
      opt::ViewStatus VS = opt::ProfileView::build(*Art, *Derived, View);
      if (VS != opt::ViewStatus::Ok) {
        std::fprintf(stderr, "%s: profile refused: %s\n", Spec.Name.c_str(),
                     opt::viewStatusName(VS));
        return nullptr;
      }
      opt::PipelineResult R = opt::runPipeline(*Derived, View, Passes,
                                               PassOpts);
      if (!R.Ok) {
        std::fprintf(stderr, "%s: %s\n", Spec.Name.c_str(), R.Error.c_str());
        return nullptr;
      }
      if (StatsOut)
        *StatsOut = std::move(R);
      return Derived;
    };

    // Dry run on this thread: collect per-pass stats and refuse before
    // declaring re-runs whose Build would fail on a worker.
    if (!Optimize(&P.Pipeline)) {
      noteDegradedRow(Spec.Name);
      continue;
    }
    P.Ok = true;
    for (vm::Engine Eng : {vm::Engine::Reference, vm::Engine::Threaded}) {
      driver::RunPlan Plan = measurePlan(Spec, Eng, Variant);
      // Deterministic given the (deterministic) profile, so the
      // OptVariant-tagged fingerprint names the module contents exactly
      // and the threaded re-run can cache.
      Plan.Build = [Optimize] {
        auto M = Optimize(nullptr);
        assert(M && "pipeline succeeded on the dry run but failed here");
        return M;
      };
      size_t Ticket = driver::defaultDriver().submit(std::move(Plan));
      (Eng == vm::Engine::Reference ? P.OptRef : P.OptThr) = Ticket;
    }
  }

  // Phase 3: collect, check bit-identical behaviour, render.
  TableWriter Table;
  Table.setHeader({"Benchmark", "Dups", "Inlined", "Cycles before", "after",
                   "IC miss before", "after", "Speedup"});
  std::vector<Row> Rows;
  size_t Improved = 0;
  bool LiImproved = false;
  for (size_t Index = 0; Index != Suite.size(); ++Index) {
    const workloads::WorkloadSpec &Spec = Suite[Index];
    Pending &P = Reruns[Index];
    if (!P.Ok)
      continue; // already reported in phase 2
    driver::OutcomePtr OptRef = getRun(P.OptRef, Spec.Name, Mode::None);
    driver::OutcomePtr OptThr = getRun(P.OptThr, Spec.Name, Mode::None);
    if (!OptRef || !OptThr) {
      noteDegradedRow(Spec.Name);
      continue;
    }
    // The optimized program must behave bit-identically: same exit value
    // as the baseline, and the same totals from both engines.
    if (OptRef->Result.ExitValue != P.BaseRef->Result.ExitValue ||
        P.BaseThr->Result.ExitValue != P.BaseRef->Result.ExitValue) {
      std::fprintf(stderr, "%s: behaviour changed after optimization!\n",
                   Spec.Name.c_str());
      return 1;
    }
    if (OptRef->Result.ExitValue != OptThr->Result.ExitValue ||
        OptRef->Totals != OptThr->Totals) {
      std::fprintf(stderr, "%s: engines diverged on the optimized module!\n",
                   Spec.Name.c_str());
      return 1;
    }

    Row R;
    R.Workload = Spec.Name;
    for (const opt::PassStats &S : P.Pipeline.Passes) {
      R.BlocksDuplicated += S.BlocksDuplicated;
      R.SitesInlined += S.SitesInlined;
    }
    R.CyclesBefore = P.BaseRef->total(hw::Event::Cycles);
    R.CyclesAfter = OptRef->total(hw::Event::Cycles);
    R.IcBefore = P.BaseRef->total(hw::Event::ICacheMiss);
    R.IcAfter = OptRef->total(hw::Event::ICacheMiss);
    R.Improved = R.CyclesAfter < R.CyclesBefore && R.IcAfter < R.IcBefore;
    Improved += R.Improved;
    if (R.Improved && Spec.Name == LiWorkload)
      LiImproved = true;
    Rows.push_back(R);

    Table.addRow({Spec.Name, std::to_string(R.BlocksDuplicated),
                  std::to_string(R.SitesInlined),
                  std::to_string(R.CyclesBefore),
                  std::to_string(R.CyclesAfter), std::to_string(R.IcBefore),
                  std::to_string(R.IcAfter),
                  formatString("%.3f", double(R.CyclesBefore) /
                                           double(R.CyclesAfter))});
  }
  std::printf("%s\n", Table.render().c_str());

  std::ofstream Json("BENCH_pgo_loop.json");
  Json << "{\n  \"bench\": \"pgo_loop\",\n  \"passes\": \"" << Variant
       << "\",\n  \"icache\": \"" << ICache.SizeBytes << "/"
       << ICache.LineBytes << "/" << ICache.Associativity
       << "\",\n  \"rows\": [\n";
  for (size_t Index = 0; Index != Rows.size(); ++Index) {
    const Row &R = Rows[Index];
    char Buf[320];
    std::snprintf(
        Buf, sizeof(Buf),
        "    {\"workload\": \"%s\", \"blocks_duplicated\": %u, "
        "\"sites_inlined\": %u, \"cycles_before\": %llu, "
        "\"cycles_after\": %llu, \"icmiss_before\": %llu, "
        "\"icmiss_after\": %llu, \"improved\": %s}%s\n",
        R.Workload.c_str(), R.BlocksDuplicated, R.SitesInlined,
        (unsigned long long)R.CyclesBefore, (unsigned long long)R.CyclesAfter,
        (unsigned long long)R.IcBefore, (unsigned long long)R.IcAfter,
        R.Improved ? "true" : "false", Index + 1 == Rows.size() ? "" : ",");
    Json << Buf;
  }
  Json << "  ],\n  \"improved\": " << Improved
       << ",\n  \"min_improved\": " << MinImproved
       << ",\n  \"li_improved\": " << (LiImproved ? "true" : "false")
       << "\n}\n";
  std::printf("wrote BENCH_pgo_loop.json (%zu/%zu workloads improved both "
              "cycles and IC misses)\n",
              Improved, Rows.size());

  if (Check && (Improved < MinImproved || !LiImproved)) {
    std::fprintf(stderr,
                 "pgo_loop: %zu workloads improved (need %zu, li %s) — the "
                 "optimizer no longer pays for itself\n",
                 Improved, MinImproved,
                 LiImproved ? "improved" : "did NOT improve");
    return 1;
  }
  return 0;
}
