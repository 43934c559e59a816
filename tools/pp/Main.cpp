//===- tools/pp/Main.cpp - the PP command-line driver --------------------------===//
//
// The command-line face of the library, mirroring the paper's PP tool:
// load a program (a .ppir file or a built-in SPEC95-shaped workload),
// instrument it for the requested mode, run it on the simulated machine,
// and report — whole-run metrics with overhead against an uninstrumented
// run, hot paths with their block sequences, per-procedure aggregates,
// and calling-context-tree statistics or Graphviz dumps.
//
//===----------------------------------------------------------------------===//

#include "analysis/HotPaths.h"
#include "bl/KPathNumbering.h"
#include "bl/PathNumbering.h"
#include "cct/Export.h"
#include "driver/Driver.h"
#include "ir/Parser.h"
#include "obs/Obs.h"
#include "ir/Printer.h"
#include "prof/Session.h"
#include "support/Format.h"
#include "support/TableWriter.h"
#include "workloads/Spec.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

using namespace pp;

namespace {

struct Options {
  std::string Input;
  prof::Mode M = prof::Mode::FlowHw;
  hw::Event Pic0 = hw::Event::Insts;
  hw::Event Pic1 = hw::Event::DCacheReadMiss;
  prof::AcquisitionOptions Acq;
  int Scale = 1;
  unsigned K = 1;
  double HotThreshold = 0.01;
  bool DumpIr = false;
  bool DumpInstrumented = false;
  bool ListWorkloads = false;
  unsigned MaxPathsShown = 10;
  bool Coverage = false;
  std::string DotFile;
  std::string CctFile;
  std::string SignalSpec;
  std::string ProfileOutDir;
  std::string ObsOutFile;
};

void printUsage() {
  std::printf(
      "usage: pp [options] <file.ppir | workload name>\n"
      "\n"
      "Flow and context sensitive profiling on a simulated machine\n"
      "(reproduction of Ammons/Ball/Larus, PLDI 1997).\n"
      "\n"
      "options:\n"
      "  --mode=<m>        none|edge|flow|flowhw|context|contexthw|"
      "contextflow|\n"
      "                    contextflowhw (default flowhw)\n"
      "  --events=<a>,<b>  the two events routed to the PICs:\n"
      "                    cycles,insts,dcrmiss,dcwmiss,icmiss,mispredict,\n"
      "                    storebuf,fpstall (default insts,dcrmiss)\n"
      "  --scale=<n>       workload scale factor (default 1)\n"
      "  --k=<n>           count paths spanning up to n-1 back edges\n"
      "                    (k-iteration Ball-Larus; default 1 = classic;\n"
      "                    needs flow/flowhw mode and exact acquisition)\n"
      "  --hot=<frac>      hot-path threshold as a miss fraction "
      "(default 0.01)\n"
      "  --paths=<n>       hot paths to list (default 10)\n"
      "  --coverage        report path coverage per function (flow modes)\n"
      "  --signal=<f>:<n>  run function f as a signal handler every n\n"
      "                    executed instructions\n"
      "  --acquisition=<a> exact (instrumented counter reads, the default)\n"
      "                    or overflow (PIC overflow-trap sampling; the\n"
      "                    profile becomes a statistical estimate)\n"
      "  --period=<n>      overflow sampling period in events "
      "(default 65536)\n"
      "  --sample-pic=<p>  which PIC's overflow traps drive sampling: 0 "
      "or 1\n"
      "                    (default 0)\n"
      "  --sample-seed=<s> nonzero: jitter each period in [p/2, 3p/2) "
      "from a\n"
      "                    deterministic PRNG; 0 keeps the period fixed\n"
      "  --dot=<file>      write the CCT as Graphviz\n"
      "  --cct-out=<file>  write the serialised CCT profile\n"
      "  --profile-out=<dir>  deposit a profile artifact per run into dir\n"
      "                    (overrides $PP_PROFILE_OUT; see pp-report)\n"
      "  --obs-out=<file>  write the pipeline observability report as JSON\n"
      "                    at exit (overrides $PP_OBS_OUT; see pp-report "
      "obs)\n"
      "  --dump-ir         print the program and exit\n"
      "  --dump-instrumented  print the instrumented program and exit\n"
      "  --list-workloads  list the built-in SPEC95-shaped workloads\n");
}

bool parseEvent(const std::string &Name, hw::Event &Out) {
  static const std::map<std::string, hw::Event> Table = {
      {"cycles", hw::Event::Cycles},
      {"insts", hw::Event::Insts},
      {"dcrmiss", hw::Event::DCacheReadMiss},
      {"dcwmiss", hw::Event::DCacheWriteMiss},
      {"icmiss", hw::Event::ICacheMiss},
      {"mispredict", hw::Event::MispredictStall},
      {"storebuf", hw::Event::StoreBufferStall},
      {"fpstall", hw::Event::FpStall},
  };
  auto It = Table.find(Name);
  if (It == Table.end())
    return false;
  Out = It->second;
  return true;
}

bool parseMode(const std::string &Name, prof::Mode &Out) {
  static const std::map<std::string, prof::Mode> Table = {
      {"none", prof::Mode::None},
      {"edge", prof::Mode::Edge},
      {"flow", prof::Mode::Flow},
      {"flowhw", prof::Mode::FlowHw},
      {"context", prof::Mode::Context},
      {"contexthw", prof::Mode::ContextHw},
      {"contextflow", prof::Mode::ContextFlow},
      {"contextflowhw", prof::Mode::ContextFlowHw},
  };
  auto It = Table.find(Name);
  if (It == Table.end())
    return false;
  Out = It->second;
  return true;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int Index = 1; Index != Argc; ++Index) {
    std::string Arg = Argv[Index];
    auto Value = [&Arg](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
    };
    if (Arg == "--help" || Arg == "-h") {
      printUsage();
      std::exit(0);
    } else if (Arg == "--dump-ir") {
      Opts.DumpIr = true;
    } else if (Arg == "--dump-instrumented") {
      Opts.DumpInstrumented = true;
    } else if (Arg == "--list-workloads") {
      Opts.ListWorkloads = true;
    } else if (const char *V = Value("--mode=")) {
      if (!parseMode(V, Opts.M)) {
        std::fprintf(stderr, "pp: unknown mode '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--events=")) {
      std::string Text = V;
      size_t Comma = Text.find(',');
      if (Comma == std::string::npos ||
          !parseEvent(Text.substr(0, Comma), Opts.Pic0) ||
          !parseEvent(Text.substr(Comma + 1), Opts.Pic1)) {
        std::fprintf(stderr, "pp: bad --events '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--scale=")) {
      Opts.Scale = std::atoi(V);
      if (Opts.Scale < 1) {
        std::fprintf(stderr, "pp: bad scale\n");
        return false;
      }
    } else if (const char *V = Value("--k=")) {
      uint64_t K = 0;
      if (!parseUint64(V, K) || K == 0 || K > 16) {
        std::fprintf(stderr, "pp: bad --k '%s' (want 1..16)\n", V);
        return false;
      }
      Opts.K = static_cast<unsigned>(K);
    } else if (const char *V = Value("--hot=")) {
      Opts.HotThreshold = std::atof(V);
    } else if (const char *V = Value("--paths=")) {
      Opts.MaxPathsShown = static_cast<unsigned>(std::atoi(V));
    } else if (Arg == "--coverage") {
      Opts.Coverage = true;
    } else if (const char *V = Value("--acquisition=")) {
      if (!prof::parseAcquisition(V, Opts.Acq.Kind)) {
        std::fprintf(stderr, "pp: unknown acquisition '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--period=")) {
      // The PIC is 32 bits wide: 0 would arm a 2^32-event trap (the
      // register wraps all the way around) and > 2^32-1 cannot be
      // programmed, so both are user errors, not values to clamp quietly.
      uint64_t Period = 0;
      if (!parseUint64(V, Period) || Period == 0 ||
          Period > 0xffffffffULL) {
        std::fprintf(stderr,
                     "pp: bad --period '%s' (want 1..4294967295)\n", V);
        return false;
      }
      Opts.Acq.Period = Period;
    } else if (const char *V = Value("--sample-pic=")) {
      unsigned Pic = static_cast<unsigned>(std::atoi(V));
      if (Pic > 1) {
        std::fprintf(stderr, "pp: --sample-pic wants 0 or 1\n");
        return false;
      }
      Opts.Acq.Pic = Pic;
    } else if (const char *V = Value("--sample-seed=")) {
      Opts.Acq.Seed = std::strtoull(V, nullptr, 10);
    } else if (const char *V = Value("--signal=")) {
      Opts.SignalSpec = V;
    } else if (const char *V = Value("--dot=")) {
      Opts.DotFile = V;
    } else if (const char *V = Value("--cct-out=")) {
      Opts.CctFile = V;
    } else if (const char *V = Value("--profile-out=")) {
      Opts.ProfileOutDir = V;
    } else if (const char *V = Value("--obs-out=")) {
      Opts.ObsOutFile = V;
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "pp: unknown option '%s'\n", Arg.c_str());
      return false;
    } else if (Opts.Input.empty()) {
      Opts.Input = Arg;
    } else {
      std::fprintf(stderr, "pp: multiple inputs\n");
      return false;
    }
  }
  return true;
}

/// The module Opts.Input names: a registry workload, else a .ppir file.
/// \p IsBuiltin, when given, learns which of the two it was.
std::unique_ptr<ir::Module> loadInput(const Options &Opts,
                                      bool *IsBuiltin = nullptr) {
  std::unique_ptr<ir::Module> M =
      workloads::buildWorkload(Opts.Input, Opts.Scale);
  if (IsBuiltin)
    *IsBuiltin = M != nullptr;
  if (M)
    return M;
  // Otherwise a .ppir file.
  std::ifstream File(Opts.Input);
  if (!File) {
    std::fprintf(stderr, "pp: cannot open '%s' (and it is not a built-in "
                         "workload; see --list-workloads)\n",
                 Opts.Input.c_str());
    return nullptr;
  }
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  ir::ParseResult Parsed = ir::parseModule(Buffer.str());
  if (!Parsed.ok()) {
    std::fprintf(stderr, "pp: %s: %s\n", Opts.Input.c_str(),
                 Parsed.Error.c_str());
    return nullptr;
  }
  return std::move(Parsed.M);
}

void reportSummary(const prof::RunOutcome &Base,
                   const prof::RunOutcome &Run) {
  TableWriter Table;
  Table.setHeader({"Metric", "Base", "Instrumented", "Ratio"});
  for (unsigned E = 0; E != hw::NumEvents; ++E) {
    uint64_t BaseVal = Base.Totals[E];
    uint64_t RunVal = Run.Totals[E];
    Table.addRow({hw::eventName(static_cast<hw::Event>(E)),
                  std::to_string(BaseVal), std::to_string(RunVal),
                  formatRatio(double(RunVal), double(BaseVal))});
  }
  std::printf("%s\n", Table.render().c_str());
}

void reportHotPaths(const ir::Module &M, const prof::RunOutcome &Run,
                    const Options &Opts) {
  std::vector<analysis::PathRecord> Records =
      analysis::collectPathRecords(Run);
  analysis::HotPathAnalysis A =
      analysis::analyzeHotPaths(Records, Opts.HotThreshold);
  std::printf("%llu executed paths; %llu hot (>= %.2f%% of misses) cover "
              "%s of misses\n\n",
              (unsigned long long)A.TotalPaths,
              (unsigned long long)A.Hot.Num, 100.0 * Opts.HotThreshold,
              formatPercent(double(A.Hot.Misses), double(A.TotalMisses))
                  .c_str());

  TableWriter Table;
  // k > 1 runs rename the sum column and render each window's iteration
  // segments; k=1 output stays byte-identical to the classic tool.
  bool KMode = Opts.K > 1;
  if (KMode)
    Table.setHeader({"Function", "k", "Window", "Freq", "PIC0", "PIC1",
                     "Blocks"});
  else
    Table.setHeader({"Function", "Path", "Freq", "PIC0", "PIC1", "Blocks"});
  unsigned Shown = 0;
  for (size_t Index : A.HotIndices) {
    if (Shown++ == Opts.MaxPathsShown)
      break;
    const analysis::PathRecord &Record = Records[Index];
    const ir::Function &F = *M.function(Record.FuncId);
    // The function's effective k after the fallback ladder, straight from
    // the run's instrumentation metadata.
    unsigned KIters =
        Record.FuncId < Run.Instr.Functions.size()
            ? Run.Instr.Functions[Record.FuncId].KIters
            : 1;
    std::string Blocks;
    if (KIters > 1) {
      // Rebuilding the bundle is deterministic, so the decode matches the
      // numbering the run counted with.
      bl::KPathBundle Bundle(F, KIters);
      std::vector<bl::RegeneratedPath> Segments =
          Bundle.KPN.regenerate(Record.PathSum);
      for (size_t S = 0; S != Segments.size(); ++S) {
        const bl::RegeneratedPath &Path = Segments[S];
        if (S)
          Blocks += " | ";
        else if (Path.StartsAfterBackedge)
          Blocks += "(loop) ";
        for (size_t N = 0; N != Path.Nodes.size(); ++N) {
          if (N)
            Blocks += " ";
          Blocks += Bundle.G.block(Path.Nodes[N])->name();
        }
      }
      if (!Segments.empty() && Segments.back().EndsWithBackedge)
        Blocks += " (back edge)";
    } else {
      cfg::Cfg G(F);
      bl::PathNumbering PN(G);
      if (PN.valid()) {
        bl::RegeneratedPath Path = PN.regenerate(Record.PathSum);
        if (Path.StartsAfterBackedge)
          Blocks += "(loop) ";
        for (size_t N = 0; N != Path.Nodes.size(); ++N) {
          if (N)
            Blocks += " ";
          Blocks += G.block(Path.Nodes[N])->name();
        }
        if (Path.EndsWithBackedge)
          Blocks += " (back edge)";
      }
    }
    std::vector<std::string> Cells{F.name()};
    if (KMode)
      Cells.push_back(std::to_string(KIters));
    Cells.insert(Cells.end(),
                 {std::to_string(Record.PathSum),
                  std::to_string(Record.Freq), std::to_string(Record.Insts),
                  std::to_string(Record.Misses), Blocks});
    Table.addRow(std::move(Cells));
  }
  std::printf("%s\n", Table.render().c_str());
}

void reportProcedures(const ir::Module &M, const prof::RunOutcome &Run,
                      const Options &Opts) {
  std::vector<analysis::PathRecord> Records =
      analysis::collectPathRecords(Run);
  std::vector<analysis::ProcRecord> Procs =
      analysis::aggregateByProcedure(Records);
  std::sort(Procs.begin(), Procs.end(),
            [](const analysis::ProcRecord &A, const analysis::ProcRecord &B) {
              return A.Misses > B.Misses;
            });
  TableWriter Table;
  Table.setHeader({"Function", "Paths", "Calls+Loops", "PIC0", "PIC1"});
  for (const analysis::ProcRecord &Proc : Procs)
    Table.addRow({M.function(Proc.FuncId)->name(),
                  std::to_string(Proc.NumPathsExecuted),
                  std::to_string(Proc.Freq), std::to_string(Proc.Insts),
                  std::to_string(Proc.Misses)});
  std::printf("%s\n", Table.render().c_str());
}

/// Path coverage (the program-testing application the paper cites
/// [WHH80, RBDL97]): executed paths vs the statically possible ones.
void reportCoverage(const ir::Module &M, const prof::RunOutcome &Run) {
  TableWriter Table;
  Table.setHeader({"Function", "Potential", "Executed", "Coverage"});
  uint64_t TotalPotential = 0, TotalExecuted = 0;
  for (const prof::FunctionPathProfile &Profile : Run.PathProfiles) {
    if (!Profile.HasProfile)
      continue;
    uint64_t Executed = Profile.Paths.size();
    Table.addRow({M.function(Profile.FuncId)->name(),
                  std::to_string(Profile.NumPaths),
                  std::to_string(Executed),
                  formatPercent(double(Executed),
                                double(Profile.NumPaths))});
    TotalPotential += Profile.NumPaths;
    TotalExecuted += Executed;
  }
  Table.addSeparator();
  Table.addRow({"total", std::to_string(TotalPotential),
                std::to_string(TotalExecuted),
                formatPercent(double(TotalExecuted),
                              double(TotalPotential))});
  std::printf("path coverage:\n%s\n", Table.render().c_str());
}

void reportCct(const prof::RunOutcome &Run, const Options &Opts) {
  const cct::CallingContextTree &Tree = *Run.Tree;
  cct::CctStats Stats = Tree.computeStats();
  std::printf("CCT: %llu records, %llu heap bytes, avg out-degree %.1f, "
              "height avg %.1f / max %llu, max replication %llu, "
              "%llu recursion backedges\n\n",
              (unsigned long long)Stats.NumRecords,
              (unsigned long long)Stats.TotalBytes, Stats.AvgOutDegree,
              Stats.AvgLeafDepth, (unsigned long long)Stats.MaxDepth,
              (unsigned long long)Stats.MaxReplication,
              (unsigned long long)Stats.BackedgeSlots);

  // The most-visited contexts.
  std::vector<const cct::CallRecord *> Sorted;
  for (const auto &R : Tree.records())
    if (R->procId() != cct::RootProcId)
      Sorted.push_back(R.get());
  std::sort(Sorted.begin(), Sorted.end(),
            [](const cct::CallRecord *A, const cct::CallRecord *B) {
              return A->Metrics[0] > B->Metrics[0];
            });
  TableWriter Table;
  Table.setHeader({"Context", "Calls", "Paths", "PIC0", "PIC1"});
  unsigned Shown = 0;
  for (const cct::CallRecord *R : Sorted) {
    if (Shown++ == Opts.MaxPathsShown)
      break;
    std::string Context = cct::contextName(
        *R, [&Tree](cct::ProcId Proc) { return Tree.procDesc(Proc).Name; },
        " > ");
    cct::RecordCounts Counts = cct::recordCounts(*R);
    Table.addRow({Context, std::to_string(Counts.Calls),
                  std::to_string(R->PathTable.size()),
                  std::to_string(Counts.Pic0), std::to_string(Counts.Pic1)});
  }
  std::printf("%s\n", Table.render().c_str());

  if (!Opts.DotFile.empty()) {
    std::ofstream Out(Opts.DotFile);
    Out << cct::exportDot(Tree);
    std::printf("wrote %s\n", Opts.DotFile.c_str());
  }
  if (!Opts.CctFile.empty()) {
    std::vector<uint8_t> Bytes = cct::serialize(Tree);
    std::ofstream Out(Opts.CctFile, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
    std::printf("wrote %s (%zu bytes)\n", Opts.CctFile.c_str(),
                Bytes.size());
  }
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;
  if (Opts.ListWorkloads) {
    for (const workloads::WorkloadSpec &Spec : workloads::spec95Suite())
      std::printf("%-14s (%s)\n", Spec.Name.c_str(),
                  Spec.IsFloat ? "CFP95" : "CINT95");
    return 0;
  }
  if (Opts.Input.empty()) {
    printUsage();
    return 1;
  }

  bool IsBuiltin = false;
  std::unique_ptr<ir::Module> M = loadInput(Opts, &IsBuiltin);
  if (!M)
    return 1;
  if (Opts.DumpIr) {
    std::printf("%s", ir::printModule(*M).c_str());
    return 0;
  }

  if (Opts.K > 1) {
    if (Opts.M != prof::Mode::Flow && Opts.M != prof::Mode::FlowHw) {
      std::fprintf(stderr,
                   "pp: --k=%u needs --mode=flow or --mode=flowhw "
                   "(got %s)\n",
                   Opts.K, prof::modeName(Opts.M));
      return 1;
    }
    if (Opts.Acq.Kind != prof::Acquisition::Exact) {
      std::fprintf(stderr,
                   "pp: --k=%u needs --acquisition=exact (sampling "
                   "reconstructs single-iteration paths only)\n",
                   Opts.K);
      return 1;
    }
  }

  prof::SessionOptions Session;
  Session.Config.M = Opts.M;
  Session.Config.Pic0 = Opts.Pic0;
  Session.Config.Pic1 = Opts.Pic1;
  Session.Config.K = Opts.K;
  Session.Acq = Opts.Acq;
  if (!Opts.SignalSpec.empty()) {
    size_t Colon = Opts.SignalSpec.find(':');
    if (Colon == std::string::npos) {
      std::fprintf(stderr, "pp: --signal wants <function>:<interval>\n");
      return 1;
    }
    Session.SignalHandler = Opts.SignalSpec.substr(0, Colon);
    Session.SignalInterval =
        std::strtoull(Opts.SignalSpec.c_str() + Colon + 1, nullptr, 10);
    if (Session.SignalInterval == 0 ||
        !M->findFunction(Session.SignalHandler)) {
      std::fprintf(stderr, "pp: bad --signal '%s'\n",
                   Opts.SignalSpec.c_str());
      return 1;
    }
  }

  if (Opts.DumpInstrumented) {
    prof::Instrumented Instr = prof::instrument(*M, Session.Config);
    std::printf("%s", ir::printModule(*Instr.M).c_str());
    return 0;
  }

  // Declare both runs up front on the shared driver; a disk cache
  // ($PP_RUN_CACHE_DIR) lets repeat invocations skip the measurement.
  // File inputs bypass the cache — their contents are not named by the
  // input path, unlike registry workloads.
  auto MakePlan = [&Opts, IsBuiltin](const prof::SessionOptions &Options) {
    driver::RunPlan Plan;
    Plan.Workload = Opts.Input;
    Plan.Scale = Opts.Scale;
    Plan.Options = Options;
    Plan.Build = [Opts] { return loadInput(Opts); };
    Plan.Cacheable = IsBuiltin;
    return Plan;
  };
  prof::SessionOptions BaseSession = Session;
  BaseSession.Config.M = prof::Mode::None;
  // The overhead baseline is always an exact uninstrumented run — the
  // thing both acquisitions are measured against. It is also always
  // classic k=1: an uninstrumented run has no window state, and the
  // baseline fingerprint must stay shared across k values.
  BaseSession.Config.K = 1;
  BaseSession.Acq = prof::AcquisitionOptions();
  driver::Driver &D = driver::defaultDriver();
  if (!Opts.ProfileOutDir.empty())
    D.scheduler().setProfileOutDir(Opts.ProfileOutDir);
  if (!Opts.ObsOutFile.empty())
    obs::setReportPath(Opts.ObsOutFile);
  size_t BaseTicket = D.submit(MakePlan(BaseSession));
  size_t RunTicket = D.submit(MakePlan(Session));

  driver::OutcomePtr Base = D.get(BaseTicket);
  if (!Base || !Base->Result.Ok) {
    std::fprintf(stderr, "pp: program failed: %s\n",
                 Base ? Base->Result.Error.c_str() : "no outcome");
    return 1;
  }

  driver::OutcomePtr Run = D.get(RunTicket);
  if (!Run || !Run->Result.Ok) {
    std::fprintf(stderr, "pp: instrumented program failed: %s\n",
                 Run ? Run->Result.Error.c_str() : "no outcome");
    return 1;
  }

  std::printf("== %s under %s (PIC0=%s, PIC1=%s) ==\n", Opts.Input.c_str(),
              prof::modeName(Opts.M), hw::eventName(Opts.Pic0),
              hw::eventName(Opts.Pic1));
  std::printf("exit value %llu; %llu instructions executed\n",
              (unsigned long long)Run->Result.ExitValue,
              (unsigned long long)Run->Result.ExecutedInsts);
  if (Opts.Acq.Kind == prof::Acquisition::Overflow)
    std::printf("overflow sampling on PIC%u, period %llu: %llu traps, "
                "%llu samples (profile is a statistical estimate)\n",
                Opts.Acq.Pic, (unsigned long long)Opts.Acq.Period,
                (unsigned long long)Run->Acq.Traps,
                (unsigned long long)Run->Acq.Samples);
  if (Opts.K > 1) {
    // Name the functions the fallback ladder dropped below the requested
    // k (their k-path space would have overflowed 2^62 ids).
    std::string Laddered;
    for (size_t Id = 0; Id != Run->Instr.Functions.size(); ++Id) {
      const prof::FunctionInstrInfo &Info = Run->Instr.Functions[Id];
      if (!Info.HasPathProfile || Info.KIters >= Opts.K)
        continue;
      if (!Laddered.empty())
        Laddered += ", ";
      Laddered += formatString("%s k=%u", M->function(Id)->name().c_str(),
                               Info.KIters);
    }
    if (Laddered.empty())
      std::printf("k-iteration paths: k=%u on every instrumented "
                  "function\n",
                  Opts.K);
    else
      std::printf("k-iteration paths: requested k=%u; overflow fallback: "
                  "%s\n",
                  Opts.K, Laddered.c_str());
  }
  std::printf("\n");
  reportSummary(*Base, *Run);

  if (Opts.M == prof::Mode::Flow || Opts.M == prof::Mode::FlowHw) {
    reportHotPaths(*M, *Run, Opts);
    reportProcedures(*M, *Run, Opts);
    if (Opts.Coverage)
      reportCoverage(*M, *Run);
  }
  if (Run->Tree)
    reportCct(*Run, Opts);
  return 0;
}
