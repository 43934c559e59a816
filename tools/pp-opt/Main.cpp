//===- tools/pp-opt/Main.cpp - the profile-guided optimizer CLI ---------------===//
//
// The command-line face of the optimizer: load a program (a .ppir file or
// a built-in workload), resolve a merged .ppa profile artifact against it,
// run the requested pass pipeline (hot-path-first layout, superblock
// formation, CCT-directed inlining), and write the optimized module plus a
// per-pass report of what changed and what was refused.
//
// Exit codes are typed so scripted PGO loops can tell the failure classes
// apart: 1 = usage / I/O / artifact decode error, 2 = the profile was
// refused against this module (ViewStatus), 3 = a pass broke the module
// (verifier failure; the output file is not written).
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opt/Pass.h"
#include "profdb/Store.h"
#include "support/Format.h"
#include "workloads/Spec.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace pp;

namespace {

struct Options {
  std::string Input;
  std::string ProfileFile;
  std::string PassText;
  std::string OutFile;
  std::string Report; // "", "text", "json"
  int Scale = 1;
};

void printUsage() {
  std::printf(
      "usage: pp-opt --in <file.ppir|workload> --profile <file.ppa> "
      "[options]\n"
      "\n"
      "Profile-guided optimizer: consumes a profile artifact collected by\n"
      "pp / pp-collectd and rewrites the program it was collected from.\n"
      "\n"
      "options:\n"
      "  --in <prog>       the program to optimize (.ppir file or built-in\n"
      "                    workload name)\n"
      "  --profile <file>  the .ppa artifact to optimize from\n"
      "  --passes <list>   comma-separated pass order: layout, superblock,\n"
      "                    inline (default all three)\n"
      "  --out <file>      write the optimized module here (.ppir text)\n"
      "  --report <fmt>    print a per-pass report: text or json\n"
      "  --scale <n>       workload scale factor (default 1)\n");
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int Index = 1; Index != Argc; ++Index) {
    std::string Arg = Argv[Index];
    // Accept both "--flag=value" and "--flag value".
    auto Value = [&](const char *Flag) -> const char * {
      size_t Len = std::strlen(Flag);
      if (Arg.compare(0, Len, Flag) == 0 && Arg.size() > Len &&
          Arg[Len] == '=')
        return Arg.c_str() + Len + 1;
      if (Arg == Flag && Index + 1 != Argc)
        return Argv[++Index];
      return nullptr;
    };
    if (Arg == "--help" || Arg == "-h") {
      printUsage();
      std::exit(0);
    } else if (const char *V = Value("--in")) {
      Opts.Input = V;
    } else if (const char *V = Value("--profile")) {
      Opts.ProfileFile = V;
    } else if (const char *V = Value("--passes")) {
      Opts.PassText = V;
    } else if (const char *V = Value("--out")) {
      Opts.OutFile = V;
    } else if (const char *V = Value("--report")) {
      Opts.Report = V;
      if (Opts.Report != "text" && Opts.Report != "json") {
        std::fprintf(stderr, "pp-opt: bad --report '%s' (want text|json)\n",
                     V);
        return false;
      }
    } else if (const char *V = Value("--scale")) {
      uint64_t Scale = 0;
      if (!parseFlagUint64("pp-opt", "--scale", V, 1, INT32_MAX, Scale))
        return false;
      Opts.Scale = static_cast<int>(Scale);
    } else {
      std::fprintf(stderr, "pp-opt: unknown option '%s'\n", Arg.c_str());
      return false;
    }
  }
  if (Opts.Input.empty() || Opts.ProfileFile.empty()) {
    std::fprintf(stderr, "pp-opt: --in and --profile are required "
                         "(see --help)\n");
    return false;
  }
  return true;
}

std::unique_ptr<ir::Module> loadInput(const Options &Opts) {
  if (auto M = workloads::buildWorkload(Opts.Input, Opts.Scale))
    return M;
  std::ifstream File(Opts.Input);
  if (!File) {
    std::fprintf(stderr, "pp-opt: cannot open '%s' (and it is not a "
                         "built-in workload)\n",
                 Opts.Input.c_str());
    return nullptr;
  }
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  ir::ParseResult Parsed = ir::parseModule(Buffer.str());
  if (!Parsed.ok()) {
    std::fprintf(stderr, "pp-opt: %s: %s\n", Opts.Input.c_str(),
                 Parsed.Error.c_str());
    return nullptr;
  }
  return std::move(Parsed.M);
}

void reportText(const opt::PipelineResult &Result, size_t InstsBefore,
                size_t InstsAfter) {
  std::printf("%-12s %10s %8s %6s %8s %7s %7s %7s %7s %6s\n", "pass",
              "considered", "changed", "dups", "inlined", "insts+",
              "budget-", "recur-", "unsafe-", "cost-");
  for (const opt::PassStats &S : Result.Passes)
    std::printf("%-12s %10u %8u %6u %8u %7llu %7u %7u %7u %6u\n",
                opt::passName(S.Kind), S.FunctionsConsidered,
                S.FunctionsChanged, S.BlocksDuplicated, S.SitesInlined,
                (unsigned long long)S.InstsAdded, S.BudgetRefusals,
                S.RecursionRefusals, S.UnsafeRefusals, S.CostRefusals);
  std::printf("module: %zu insts -> %zu insts\n", InstsBefore, InstsAfter);
}

void reportJson(const opt::PipelineResult &Result, size_t InstsBefore,
                size_t InstsAfter) {
  std::printf("{\n  \"passes\": [\n");
  for (size_t Index = 0; Index != Result.Passes.size(); ++Index) {
    const opt::PassStats &S = Result.Passes[Index];
    std::printf("    {\"pass\": \"%s\", \"functions_considered\": %u, "
                "\"functions_changed\": %u, \"blocks_duplicated\": %u, "
                "\"sites_inlined\": %u, \"insts_added\": %llu, "
                "\"budget_refusals\": %u, \"recursion_refusals\": %u, "
                "\"unsafe_refusals\": %u, \"cost_refusals\": %u}%s\n",
                opt::passName(S.Kind), S.FunctionsConsidered,
                S.FunctionsChanged, S.BlocksDuplicated, S.SitesInlined,
                (unsigned long long)S.InstsAdded, S.BudgetRefusals,
                S.RecursionRefusals, S.UnsafeRefusals, S.CostRefusals,
                Index + 1 == Result.Passes.size() ? "" : ",");
  }
  std::printf("  ],\n  \"insts_before\": %zu,\n  \"insts_after\": %zu,\n"
              "  \"ok\": %s\n}\n",
              InstsBefore, InstsAfter, Result.Ok ? "true" : "false");
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;

  std::unique_ptr<ir::Module> M = loadInput(Opts);
  if (!M)
    return 1;

  profdb::Artifact A;
  profdb::DecodeStatus DS = profdb::readArtifactFile(Opts.ProfileFile, A);
  if (DS != profdb::DecodeStatus::Ok) {
    std::fprintf(stderr, "pp-opt: %s: %s\n", Opts.ProfileFile.c_str(),
                 profdb::decodeStatusName(DS));
    return 1;
  }

  opt::ProfileView View;
  opt::ViewStatus VS = opt::ProfileView::build(A, *M, View);
  if (VS != opt::ViewStatus::Ok) {
    std::fprintf(stderr, "pp-opt: profile refused: %s\n",
                 opt::viewStatusName(VS));
    return 2;
  }

  std::vector<opt::PassKind> Passes = {opt::PassKind::Layout,
                                       opt::PassKind::Superblock,
                                       opt::PassKind::Inline};
  if (!Opts.PassText.empty()) {
    std::string Error;
    if (!opt::parsePasses(Opts.PassText, Passes, Error)) {
      std::fprintf(stderr, "pp-opt: bad --passes: %s\n", Error.c_str());
      return 1;
    }
  }
  const opt::PassOptions PassOpts;

  const size_t InstsBefore = M->numInsts();
  opt::PipelineResult Result = opt::runPipeline(*M, View, Passes, PassOpts);
  if (!Result.Ok) {
    std::fprintf(stderr, "pp-opt: %s\n", Result.Error.c_str());
    return 3;
  }
  const size_t InstsAfter = M->numInsts();

  if (!Opts.OutFile.empty()) {
    std::ofstream Out(Opts.OutFile, std::ios::trunc);
    if (!Out) {
      std::fprintf(stderr, "pp-opt: cannot write '%s'\n",
                   Opts.OutFile.c_str());
      return 1;
    }
    Out << ir::printModule(*M);
    if (!Out.flush()) {
      std::fprintf(stderr, "pp-opt: write to '%s' failed\n",
                   Opts.OutFile.c_str());
      return 1;
    }
  }

  if (Opts.Report == "json")
    reportJson(Result, InstsBefore, InstsAfter);
  else if (Opts.Report == "text")
    reportText(Result, InstsBefore, InstsAfter);
  return 0;
}
