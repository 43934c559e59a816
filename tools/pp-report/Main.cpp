//===- tools/pp-report/Main.cpp - Profile repository queries -------------------===//
//
// The query side of the profile repository: reads the .ppa artifacts that
// driver runs deposit (PP_PROFILE_OUT / pp --profile-out), merges and
// diffs them, and answers the paper's questions from storage — including
// regenerating Tables 3, 4, and 5 byte-identically to the live bench
// binaries (--repo mode renders through the same analysis::renderTableN
// code the benches use).
//
//   pp-report merge -o merged.ppa shard1.ppa shard2.ppa ...
//   pp-report diff a.ppa b.ppa
//   pp-report top-paths [--paths=N] <a.ppa...>
//   pp-report top-paths --repo DIR          (Table 4)
//   pp-report top-procs [--procs=N] <a.ppa...>
//   pp-report top-procs --repo DIR          (Table 5)
//   pp-report cct-stats [--collapsed=calls|pic0|pic1] <a.ppa...>
//   pp-report cct-stats --repo DIR          (Table 3)
//   pp-report obs <report.json>             (pretty-print an obs report)
//   pp-report obs <a.json> <b.json>         (diff two obs reports)
//   pp-report obs --repo DIR       (aggregate every stored obs report)
//
//===----------------------------------------------------------------------===//

#include "analysis/HotPaths.h"
#include "obs/ObsReport.h"
#include "analysis/PaperTables.h"
#include "analysis/SiteStats.h"
#include "cct/Export.h"
#include "hw/Event.h"
#include "prof/Acquisition.h"
#include "prof/Instrumenter.h"
#include "prof/Mode.h"
#include "profdb/Diff.h"
#include "profdb/Merge.h"
#include "profdb/Report.h"
#include "profdb/Store.h"
#include "support/Format.h"
#include "workloads/Spec.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace pp;

namespace {

void printUsage() {
  std::printf(
      "usage: pp-report <command> [options] <artifact.ppa...>\n"
      "\n"
      "Queries over stored profile artifacts (see pp --profile-out and\n"
      "the PP_PROFILE_OUT environment knob).\n"
      "\n"
      "commands:\n"
      "  merge -o <out.ppa> <a.ppa...>   merge artifacts (structural CCT\n"
      "                    merge)\n"
      "  diff <a.ppa> <b.ppa>  per-path and per-context deltas (B - A)\n"
      "  top-paths         hottest Ball-Larus paths by PIC1\n"
      "  top-procs         hottest procedures by PIC1\n"
      "  cct-stats         calling-context-tree statistics\n"
      "  obs <a.json> [b.json]  pretty-print a pipeline observability\n"
      "                    report (pp --obs-out / $PP_OBS_OUT), or diff\n"
      "                    two of them (B - A); with --repo=<dir>,\n"
      "                    aggregate every stored report into one\n"
      "\n"
      "options:\n"
      "  --repo=<dir>      render the paper table (3/4/5 for cct-stats/\n"
      "                    top-paths/top-procs) from a repository of\n"
      "                    artifacts instead of reporting one artifact\n"
      "  --paths=<n>       rows for top-paths (default 20)\n"
      "  --procs=<n>       rows for top-procs (default 20)\n"
      "  --limit=<n>       rows per diff section (default 20)\n"
      "  --acquisition=<a> which acquisition's artifacts a --repo table\n"
      "                    reads: exact (default) or overflow; artifacts\n"
      "                    of the other acquisition are ignored\n"
      "  --k=<n>           which k-iteration artifacts to read (default 1\n"
      "                    = classic Ball-Larus); a --repo table ignores\n"
      "                    other-k artifacts, explicit artifacts of a\n"
      "                    different k are an error\n"
      "  --collapsed=<c>   emit Brendan-Gregg collapsed stacks instead of\n"
      "                    cct-stats, weighted by calls|pic0|pic1\n"
      "\n"
      "Several artifacts given to top-paths/top-procs/cct-stats are\n"
      "merged in memory first.\n");
}

bool loadArtifact(const std::string &Path, profdb::Artifact &Out) {
  profdb::DecodeStatus Status = profdb::readArtifactFile(Path, Out);
  if (Status != profdb::DecodeStatus::Ok) {
    std::fprintf(stderr, "pp-report: %s: %s\n", Path.c_str(),
                 profdb::decodeStatusName(Status));
    return false;
  }
  return true;
}

/// Loads every positional artifact and folds them into one (a single
/// input passes through). False on any load or merge failure.
bool loadMerged(const std::vector<std::string> &Paths,
                profdb::Artifact &Out) {
  std::vector<profdb::Artifact> Shards;
  for (const std::string &Path : Paths) {
    profdb::Artifact A;
    if (!loadArtifact(Path, A))
      return false;
    Shards.push_back(std::move(A));
  }
  std::string Error;
  if (!profdb::mergeAll(std::move(Shards), Out, Error)) {
    std::fprintf(stderr, "pp-report: merge failed: %s\n", Error.c_str());
    return false;
  }
  return true;
}

/// Every decodable artifact in \p Dir (undecodable files warn and are
/// skipped; a missing or empty repository is an error).
bool loadRepo(const std::string &Dir, std::vector<profdb::Artifact> &Out) {
  std::vector<std::string> Files = profdb::listArtifactFiles(Dir);
  if (Files.empty()) {
    std::fprintf(stderr, "pp-report: no .ppa artifacts in '%s'\n",
                 Dir.c_str());
    return false;
  }
  for (const std::string &Path : Files) {
    profdb::Artifact A;
    profdb::DecodeStatus Status = profdb::readArtifactFile(Path, A);
    if (Status != profdb::DecodeStatus::Ok) {
      std::fprintf(stderr, "pp-report: skipping %s: %s\n", Path.c_str(),
                   profdb::decodeStatusName(Status));
      continue;
    }
    Out.push_back(std::move(A));
  }
  return !Out.empty();
}

/// The artifact for \p Workload at scale 1 under \p Schema, or null. More
/// than one match warns and keeps the first in (sorted file) order.
const profdb::Artifact *selectArtifact(
    const std::vector<profdb::Artifact> &All, const std::string &Workload,
    const profdb::MetricSchema &Schema) {
  const profdb::Artifact *Found = nullptr;
  for (const profdb::Artifact &A : All) {
    if (A.Workload != Workload || A.Scale != 1 || A.Schema != Schema)
      continue;
    if (Found) {
      std::fprintf(stderr,
                   "pp-report: several artifacts match %s (%s); using the "
                   "first in file order\n",
                   Workload.c_str(), Schema.Mode.c_str());
      return Found;
    }
    Found = &A;
  }
  return Found;
}

profdb::MetricSchema schemaOf(prof::Mode M, const std::string &Acq,
                              unsigned K) {
  profdb::MetricSchema Schema;
  Schema.Mode = prof::modeName(M);
  Schema.Pic0 = hw::eventName(hw::Event::Insts);
  Schema.Pic1 = hw::eventName(hw::Event::DCacheReadMiss);
  Schema.Acquisition = Acq;
  Schema.K = K;
  return Schema;
}

void noteMissingRow(const std::string &Workload, const char *Mode) {
  std::fprintf(stderr,
               "pp-report: no scale-1 %s artifact for %s; row skipped\n",
               Mode, Workload.c_str());
}

/// Table 4 (Table5 = false) or Table 5 from a repository of Flow-and-HW
/// artifacts, through the same renderer the live benches use.
int renderRepoPathTable(const std::string &Dir, bool Table5,
                        const std::string &Acq, unsigned K) {
  std::vector<profdb::Artifact> All;
  if (!loadRepo(Dir, All))
    return 1;
  profdb::MetricSchema Want = schemaOf(prof::Mode::FlowHw, Acq, K);
  std::vector<analysis::SuitePathRows> Rows;
  for (const workloads::WorkloadSpec &Spec : workloads::spec95Suite()) {
    const profdb::Artifact *A = selectArtifact(All, Spec.Name, Want);
    if (!A) {
      noteMissingRow(Spec.Name, Want.Mode.c_str());
      continue;
    }
    Rows.push_back({Spec.Name, Spec.IsFloat,
                    analysis::collectPathRecords(A->PathProfiles)});
  }
  std::string Out =
      Table5 ? analysis::renderTable5(Rows) : analysis::renderTable4(Rows);
  std::printf("%s", Out.c_str());
  return 0;
}

/// Table 3 from a repository of Context-and-Flow artifacts. The site
/// columns compare the stored CCT against the workload's static call
/// sites, so the (deterministic) module is rebuilt and re-instrumented
/// locally, exactly as the live bench does.
int renderRepoTable3(const std::string &Dir, const std::string &Acq) {
  std::vector<profdb::Artifact> All;
  if (!loadRepo(Dir, All))
    return 1;
  // Context modes are k=1 by construction (k > 1 is flow/flowhw only).
  profdb::MetricSchema Want = schemaOf(prof::Mode::ContextFlow, Acq, 1);
  std::vector<analysis::Table3Row> Rows;
  for (const workloads::WorkloadSpec &Spec : workloads::spec95Suite()) {
    const profdb::Artifact *A = selectArtifact(All, Spec.Name, Want);
    if (!A || !A->Tree) {
      noteMissingRow(Spec.Name, Want.Mode.c_str());
      continue;
    }
    auto Module = Spec.Build(1);
    prof::ProfileConfig Config;
    Config.M = prof::Mode::ContextFlow;
    prof::Instrumented Instr = prof::instrument(*Module, Config);

    analysis::Table3Row Row;
    Row.Name = Spec.Name;
    Row.Stats = A->Tree->computeStats();
    Row.Sites = analysis::computeSitePathStats(*A->Tree, *Module, Instr);
    Row.ProfileBytes =
        cct::serialize(*A->Tree).size() + A->Tree->heapBytes();
    Rows.push_back(std::move(Row));
  }
  std::printf("%s", analysis::renderTable3(Rows).c_str());
  return 0;
}

int runMerge(const std::string &OutPath,
             const std::vector<std::string> &Inputs) {
  if (OutPath.empty()) {
    std::fprintf(stderr, "pp-report: merge needs -o <out.ppa>\n");
    return 1;
  }
  if (Inputs.empty()) {
    std::fprintf(stderr, "pp-report: merge needs input artifacts\n");
    return 1;
  }
  profdb::Artifact Merged;
  if (!loadMerged(Inputs, Merged))
    return 1;
  std::string Error;
  if (!profdb::writeArtifactFile(OutPath, Merged, Error)) {
    std::fprintf(stderr, "pp-report: %s\n", Error.c_str());
    return 1;
  }
  std::printf("merged %zu artifact(s) (%llu runs) into %s\n", Inputs.size(),
              static_cast<unsigned long long>(Merged.RunCount),
              OutPath.c_str());
  return 0;
}

/// `obs --repo DIR`: folds every *.json report stored in \p Dir into one
/// fleet-wide aggregate (counters summed by name, spans summed by
/// identity) and renders it. Unparsable reports warn and are skipped,
/// mirroring the artifact-side loadRepo.
int runObsRepo(const std::string &Dir) {
  std::vector<std::string> Files = obs::listObsReportFiles(Dir);
  if (Files.empty()) {
    std::fprintf(stderr, "pp-report: no .json obs reports in '%s'\n",
                 Dir.c_str());
    return 1;
  }
  std::vector<obs::ObsReport> Reports;
  for (const std::string &Path : Files) {
    obs::ObsReport R;
    std::string Error;
    if (!obs::readObsReportFile(Path, R, Error)) {
      std::fprintf(stderr, "pp-report: skipping %s\n", Error.c_str());
      continue;
    }
    Reports.push_back(std::move(R));
  }
  obs::ObsReport Aggregate;
  std::string Error;
  if (!obs::aggregateObsReports(Reports, Aggregate, Error)) {
    std::fprintf(stderr, "pp-report: %s\n", Error.c_str());
    return 1;
  }
  std::printf("aggregate of %zu obs report(s) in %s\n%s", Reports.size(),
              Dir.c_str(), obs::renderObsReport(Aggregate).c_str());
  return 0;
}

int runObs(const std::vector<std::string> &Inputs) {
  if (Inputs.empty() || Inputs.size() > 2) {
    std::fprintf(stderr, "pp-report: obs wants one or two report files "
                         "(or --repo)\n");
    return 1;
  }
  obs::ObsReport A;
  std::string Error;
  if (!obs::readObsReportFile(Inputs[0], A, Error)) {
    std::fprintf(stderr, "pp-report: %s\n", Error.c_str());
    return 1;
  }
  if (Inputs.size() == 1) {
    std::printf("%s", obs::renderObsReport(A).c_str());
    return 0;
  }
  obs::ObsReport B;
  if (!obs::readObsReportFile(Inputs[1], B, Error)) {
    std::fprintf(stderr, "pp-report: %s\n", Error.c_str());
    return 1;
  }
  std::printf("%s", obs::diffObsReports(A, B).c_str());
  return 0;
}

int runDiff(const std::vector<std::string> &Inputs, size_t Limit) {
  if (Inputs.size() != 2) {
    std::fprintf(stderr, "pp-report: diff wants exactly two artifacts\n");
    return 1;
  }
  profdb::Artifact A, B;
  if (!loadArtifact(Inputs[0], A) || !loadArtifact(Inputs[1], B))
    return 1;
  profdb::ArtifactDiff Diff;
  std::string Error;
  if (!profdb::diffArtifacts(A, B, Diff, Error)) {
    std::fprintf(stderr, "pp-report: %s\n", Error.c_str());
    return 1;
  }
  std::printf("%s", profdb::renderDiff(Diff, Limit).c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    printUsage();
    return 1;
  }
  std::string Cmd = Argv[1];
  if (Cmd == "--help" || Cmd == "-h" || Cmd == "help") {
    printUsage();
    return 0;
  }

  std::string Repo, OutPath, Collapsed;
  std::string Acq = "exact";
  uint64_t Paths = 20, Procs = 20, Limit = 20;
  unsigned K = 1;
  bool KGiven = false;
  std::vector<std::string> Inputs;
  for (int Index = 2; Index != Argc; ++Index) {
    std::string Arg = Argv[Index];
    auto Value = [&Arg](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
    };
    if (Arg == "-o") {
      if (++Index == Argc) {
        std::fprintf(stderr, "pp-report: -o wants a file name\n");
        return 1;
      }
      OutPath = Argv[Index];
    } else if (const char *V = Value("--repo=")) {
      Repo = V;
    } else if (Arg == "--repo") {
      if (++Index == Argc) {
        std::fprintf(stderr, "pp-report: --repo wants a directory\n");
        return 1;
      }
      Repo = Argv[Index];
    } else if (const char *V = Value("--paths=")) {
      if (!parseFlagUint64("pp-report", "--paths", V, 0, UINT64_MAX, Paths))
        return 1;
    } else if (const char *V = Value("--procs=")) {
      if (!parseFlagUint64("pp-report", "--procs", V, 0, UINT64_MAX, Procs))
        return 1;
    } else if (const char *V = Value("--limit=")) {
      if (!parseFlagUint64("pp-report", "--limit", V, 0, UINT64_MAX, Limit))
        return 1;
    } else if (const char *V = Value("--collapsed=")) {
      Collapsed = V;
    } else if (const char *V = Value("--k=")) {
      uint64_t Parsed = 0;
      if (!parseFlagUint64("pp-report", "--k", V, 1, 16, Parsed))
        return 1;
      K = static_cast<unsigned>(Parsed);
      KGiven = true;
    } else if (const char *V = Value("--acquisition=")) {
      prof::Acquisition Kind;
      if (!prof::parseAcquisition(V, Kind)) {
        std::fprintf(stderr, "pp-report: unknown acquisition '%s'\n", V);
        return 1;
      }
      Acq = prof::acquisitionName(Kind);
    } else if (Arg.rfind("-", 0) == 0) {
      std::fprintf(stderr, "pp-report: unknown option '%s'\n", Arg.c_str());
      return 1;
    } else {
      Inputs.push_back(Arg);
    }
  }

  if (Cmd == "merge")
    return runMerge(OutPath, Inputs);
  if (Cmd == "diff")
    return runDiff(Inputs, Limit);
  if (Cmd == "obs") {
    if (!Repo.empty()) {
      if (!Inputs.empty()) {
        std::fprintf(stderr, "pp-report: --repo and explicit reports are "
                             "mutually exclusive\n");
        return 1;
      }
      return runObsRepo(Repo);
    }
    return runObs(Inputs);
  }

  if (Cmd != "top-paths" && Cmd != "top-procs" && Cmd != "cct-stats") {
    std::fprintf(stderr, "pp-report: unknown command '%s'\n", Cmd.c_str());
    return 1;
  }

  if (!Repo.empty()) {
    if (!Inputs.empty()) {
      std::fprintf(stderr,
                   "pp-report: --repo and explicit artifacts are "
                   "mutually exclusive\n");
      return 1;
    }
    if (Cmd == "top-paths")
      return renderRepoPathTable(Repo, /*Table5=*/false, Acq, K);
    if (Cmd == "top-procs")
      return renderRepoPathTable(Repo, /*Table5=*/true, Acq, K);
    return renderRepoTable3(Repo, Acq);
  }

  if (Inputs.empty()) {
    std::fprintf(stderr, "pp-report: %s wants artifacts (or --repo)\n",
                 Cmd.c_str());
    return 1;
  }
  profdb::Artifact A;
  if (!loadMerged(Inputs, A))
    return 1;
  // Cross-k inputs already fail the merge above; this catches a uniform
  // set of artifacts at a different k than the one explicitly asked for.
  if (KGiven && A.Schema.K != K) {
    std::fprintf(stderr,
                 "pp-report: artifacts are k=%u, not the requested k=%u\n",
                 A.Schema.K, K);
    return 1;
  }

  if (Cmd == "top-paths") {
    std::printf("%s", profdb::reportTopPaths(A, Paths).c_str());
    return 0;
  }
  if (Cmd == "top-procs") {
    std::printf("%s", profdb::reportTopProcs(A, Procs).c_str());
    return 0;
  }
  // cct-stats, optionally collapsed.
  if (!Collapsed.empty()) {
    profdb::CollapsedCounter Counter;
    if (!profdb::parseCollapsedCounter(Collapsed, Counter)) {
      std::fprintf(stderr, "pp-report: bad --collapsed '%s' (want "
                           "calls|pic0|pic1)\n",
                   Collapsed.c_str());
      return 1;
    }
    std::string Error;
    std::string Out = profdb::collapsedStacks(A, Counter, Error);
    if (!Error.empty()) {
      std::fprintf(stderr, "pp-report: %s\n", Error.c_str());
      return 1;
    }
    std::printf("%s", Out.c_str());
    return 0;
  }
  std::printf("%s", profdb::reportCctStats(A).c_str());
  return 0;
}
