//===- profdb/Diff.cpp - Per-path and per-context profile deltas --------------===//

#include "profdb/Diff.h"

#include "profdb/Merge.h"

#include <algorithm>
#include <map>

using namespace pp;
using namespace pp::profdb;

namespace {

struct Triple {
  uint64_t V0 = 0, V1 = 0, V2 = 0;
};

void collectPaths(const Artifact &A,
                  std::map<std::pair<unsigned, uint64_t>, Triple> &Out) {
  for (const prof::FunctionPathProfile &Profile : A.PathProfiles) {
    if (!Profile.HasProfile)
      continue;
    for (const prof::PathEntry &Entry : Profile.Paths) {
      Triple &T = Out[{Profile.FuncId, Entry.PathSum}];
      T.V0 += Entry.Freq;
      T.V1 += Entry.Metric0;
      T.V2 += Entry.Metric1;
    }
  }
}

void collectContexts(const Artifact &A, std::map<std::string, Triple> &Out) {
  if (!A.Tree)
    return;
  auto Name = [&A](cct::ProcId Proc) {
    return Proc < A.Functions.size() ? A.Functions[Proc]
                                     : "proc" + std::to_string(Proc);
  };
  for (const auto &R : A.Tree->records()) {
    if (R->procId() == cct::RootProcId)
      continue;
    cct::RecordCounts Counts = cct::recordCounts(*R);
    Triple &Into = Out[cct::contextName(*R, Name, " > ")];
    Into.V0 += Counts.Calls;
    Into.V1 += Counts.Pic0;
    Into.V2 += Counts.Pic1;
  }
}

int64_t delta(uint64_t B, uint64_t A) {
  return static_cast<int64_t>(B) - static_cast<int64_t>(A);
}

uint64_t magnitude(int64_t V) {
  return V < 0 ? static_cast<uint64_t>(-V) : static_cast<uint64_t>(V);
}

} // namespace

bool profdb::diffArtifacts(const Artifact &A, const Artifact &B,
                           ArtifactDiff &Out, std::string &Error) {
  // The (FuncId, PathSum) diff key is only meaningful within one path-id
  // space, so the shapes must agree exactly as a merge needs them to.
  if (!checkShape(A, A.Tree != nullptr, B, B.Tree != nullptr, "diff", Error))
    return false;
  Out.Paths.clear();
  Out.Contexts.clear();

  std::map<std::pair<unsigned, uint64_t>, Triple> PathsA, PathsB;
  collectPaths(A, PathsA);
  collectPaths(B, PathsB);
  // Union of both key sets; the std::map keeps it ordered.
  for (const auto &[Key, T] : PathsB)
    (void)PathsA[Key], (void)T;
  for (const auto &[Key, TA] : PathsA) {
    auto It = PathsB.find(Key);
    Triple TB = It == PathsB.end() ? Triple{} : It->second;
    PathDelta D;
    D.FuncId = Key.first;
    D.PathSum = Key.second;
    D.DFreq = delta(TB.V0, TA.V0);
    D.DPic0 = delta(TB.V1, TA.V1);
    D.DPic1 = delta(TB.V2, TA.V2);
    if (D.DFreq || D.DPic0 || D.DPic1)
      Out.Paths.push_back(D);
  }
  std::stable_sort(Out.Paths.begin(), Out.Paths.end(),
                   [](const PathDelta &X, const PathDelta &Y) {
                     if (magnitude(X.DPic1) != magnitude(Y.DPic1))
                       return magnitude(X.DPic1) > magnitude(Y.DPic1);
                     if (magnitude(X.DPic0) != magnitude(Y.DPic0))
                       return magnitude(X.DPic0) > magnitude(Y.DPic0);
                     if (X.FuncId != Y.FuncId)
                       return X.FuncId < Y.FuncId;
                     return X.PathSum < Y.PathSum;
                   });

  std::map<std::string, Triple> ContextsA, ContextsB;
  collectContexts(A, ContextsA);
  collectContexts(B, ContextsB);
  for (const auto &[Key, T] : ContextsB)
    (void)ContextsA[Key], (void)T;
  for (const auto &[Key, TA] : ContextsA) {
    auto It = ContextsB.find(Key);
    Triple TB = It == ContextsB.end() ? Triple{} : It->second;
    ContextDelta D;
    D.Context = Key;
    D.DCalls = delta(TB.V0, TA.V0);
    D.DPic0 = delta(TB.V1, TA.V1);
    D.DPic1 = delta(TB.V2, TA.V2);
    if (D.DCalls || D.DPic0 || D.DPic1)
      Out.Contexts.push_back(std::move(D));
  }
  std::stable_sort(Out.Contexts.begin(), Out.Contexts.end(),
                   [](const ContextDelta &X, const ContextDelta &Y) {
                     if (magnitude(X.DPic1) != magnitude(Y.DPic1))
                       return magnitude(X.DPic1) > magnitude(Y.DPic1);
                     if (magnitude(X.DCalls) != magnitude(Y.DCalls))
                       return magnitude(X.DCalls) > magnitude(Y.DCalls);
                     return X.Context < Y.Context;
                   });
  return true;
}
