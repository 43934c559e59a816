//===- opt/Pipeline.cpp - The profile-guided pass pipeline --------------------===//

#include "opt/Pass.h"

#include "ir/Module.h"
#include "ir/Verifier.h"
#include "obs/Obs.h"
#include "opt/Layout.h"

#include <cassert>

using namespace pp;
using namespace pp::opt;

const char *opt::passName(PassKind Kind) {
  switch (Kind) {
  case PassKind::Layout:
    return "layout";
  case PassKind::Superblock:
    return "superblock";
  case PassKind::Inline:
    return "inline";
  }
  return "unknown";
}

bool opt::parsePasses(const std::string &Text, std::vector<PassKind> &Out,
                      std::string &Error) {
  Out.clear();
  if (Text.empty()) {
    Error = "empty pass list";
    return false;
  }
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Comma = Text.find(',', Pos);
    std::string Name = Text.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    if (Name == "layout")
      Out.push_back(PassKind::Layout);
    else if (Name == "superblock")
      Out.push_back(PassKind::Superblock);
    else if (Name == "inline")
      Out.push_back(PassKind::Inline);
    else {
      Error = "unknown pass '" + Name + "'";
      return false;
    }
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return true;
}

PassStats opt::runLayoutPass(ir::Module &M, const ProfileView &View) {
  assert(&View.module() == &M && "view resolved against a different module");
  PassStats Stats;
  Stats.Kind = PassKind::Layout;
  for (unsigned Id = 0; Id != View.numFunctions(); ++Id) {
    const FunctionHotness &FH = View.function(Id);
    if (!FH.HasPaths)
      continue;
    ir::Function &F = *M.function(Id);
    if (F.numBlocks() < 2)
      continue;
    ++Stats.FunctionsConsidered;
    // Chain every recorded trace in hotness order, not just the hottest:
    // the second-hottest path is typically the loop body whose blocks a
    // single-trace layout would otherwise scatter behind the cold tail.
    std::vector<ir::BasicBlock *> Chain;
    for (const HotPath &HP : FH.Paths)
      Chain.insert(Chain.end(), HP.Blocks.begin(), HP.Blocks.end());
    if (reorderTraceFirst(F, Chain)) {
      ++Stats.FunctionsChanged;
      obs::add(obs::Counter::OptFunctionsReordered);
    }
  }
  return Stats;
}

PipelineResult opt::runPipeline(ir::Module &M, const ProfileView &View,
                                const std::vector<PassKind> &Passes,
                                const PassOptions &Opts) {
  PipelineResult Result;
  for (PassKind Kind : Passes) {
    PassStats Stats;
    {
      obs::SpanScope Span("opt", "pass", passName(Kind), M.numInsts(), 1);
      switch (Kind) {
      case PassKind::Layout:
        Stats = runLayoutPass(M, View);
        break;
      case PassKind::Superblock:
        Stats = runSuperblockPass(M, View, Opts);
        break;
      case PassKind::Inline:
        Stats = runInlinePass(M, View, Opts);
        break;
      }
      Span.setItems(Stats.FunctionsChanged);
    }
    Result.Passes.push_back(Stats);

    // A transform bug must surface here as a typed error, not later as a
    // miscomputing program.
    std::vector<std::string> Errors;
    if (!ir::verifyModule(M, Errors)) {
      Result.Ok = false;
      Result.Error = std::string("module invalid after pass '") +
                     passName(Kind) + "': " +
                     (Errors.empty() ? "unknown" : Errors.front());
      return Result;
    }
  }
  return Result;
}
