//===- analysis/HotPaths.cpp - Hot path / procedure analysis -----------------===//

#include "analysis/HotPaths.h"

#include <algorithm>
#include <map>

using namespace pp;
using namespace pp::analysis;

std::vector<PathRecord> analysis::collectPathRecords(
    const std::vector<prof::FunctionPathProfile> &Profiles) {
  std::vector<PathRecord> Records;
  for (const prof::FunctionPathProfile &Profile : Profiles) {
    if (!Profile.HasProfile)
      continue;
    for (const prof::PathEntry &Entry : Profile.Paths) {
      PathRecord Record;
      Record.FuncId = Profile.FuncId;
      Record.PathSum = Entry.PathSum;
      Record.Freq = Entry.Freq;
      Record.Insts = Entry.Metric0;
      Record.Misses = Entry.Metric1;
      Records.push_back(Record);
    }
  }
  return Records;
}

std::vector<PathRecord>
analysis::collectPathRecords(const prof::RunOutcome &Outcome) {
  return collectPathRecords(Outcome.PathProfiles);
}

HotPathAnalysis
analysis::analyzeHotPaths(const std::vector<PathRecord> &Records,
                          double Threshold) {
  HotPathAnalysis Out;
  Out.TotalPaths = Records.size();
  for (const PathRecord &Record : Records) {
    Out.TotalInsts += Record.Insts;
    Out.TotalMisses += Record.Misses;
  }
  double AvgMissRatio =
      Out.TotalInsts == 0
          ? 0
          : double(Out.TotalMisses) / double(Out.TotalInsts);
  double HotCut = Threshold * double(Out.TotalMisses);

  for (size_t Index = 0; Index != Records.size(); ++Index) {
    const PathRecord &Record = Records[Index];
    bool IsHot = double(Record.Misses) >= HotCut && Record.Misses > 0;
    ClassStats &Class = IsHot ? Out.Hot : Out.Cold;
    ++Class.Num;
    Class.Insts += Record.Insts;
    Class.Misses += Record.Misses;
    if (!IsHot)
      continue;
    Out.HotIndices.push_back(Index);
    double Ratio =
        Record.Insts == 0 ? 0 : double(Record.Misses) / double(Record.Insts);
    ClassStats &Density = Ratio > AvgMissRatio ? Out.Dense : Out.Sparse;
    ++Density.Num;
    Density.Insts += Record.Insts;
    Density.Misses += Record.Misses;
  }
  std::sort(Out.HotIndices.begin(), Out.HotIndices.end(),
            [&Records](size_t A, size_t B) {
              return Records[A].Misses > Records[B].Misses;
            });
  return Out;
}

std::vector<ProcRecord>
analysis::aggregateByProcedure(const std::vector<PathRecord> &Records) {
  std::map<unsigned, ProcRecord> ByProc;
  for (const PathRecord &Record : Records) {
    ProcRecord &Proc = ByProc[Record.FuncId];
    Proc.FuncId = Record.FuncId;
    ++Proc.NumPathsExecuted;
    Proc.Freq += Record.Freq;
    Proc.Insts += Record.Insts;
    Proc.Misses += Record.Misses;
  }
  std::vector<ProcRecord> Out;
  Out.reserve(ByProc.size());
  for (auto &[FuncId, Proc] : ByProc)
    Out.push_back(Proc);
  return Out;
}

HotProcAnalysis
analysis::analyzeHotProcs(const std::vector<ProcRecord> &Procs,
                          double Threshold) {
  HotProcAnalysis Out;
  for (const ProcRecord &Proc : Procs) {
    Out.TotalMisses += Proc.Misses;
    Out.TotalInsts += Proc.Insts;
  }
  double AvgMissRatio =
      Out.TotalInsts == 0 ? 0
                          : double(Out.TotalMisses) / double(Out.TotalInsts);
  double HotCut = Threshold * double(Out.TotalMisses);

  uint64_t HotPaths = 0, ColdPaths = 0, DensePaths = 0, SparsePaths = 0;
  for (const ProcRecord &Proc : Procs) {
    bool IsHot = double(Proc.Misses) >= HotCut && Proc.Misses > 0;
    ClassStats &Class = IsHot ? Out.Hot : Out.Cold;
    ++Class.Num;
    Class.Insts += Proc.Insts;
    Class.Misses += Proc.Misses;
    (IsHot ? HotPaths : ColdPaths) += Proc.NumPathsExecuted;
    if (!IsHot)
      continue;
    double Ratio =
        Proc.Insts == 0 ? 0 : double(Proc.Misses) / double(Proc.Insts);
    bool IsDense = Ratio > AvgMissRatio;
    ClassStats &Density = IsDense ? Out.Dense : Out.Sparse;
    ++Density.Num;
    Density.Insts += Proc.Insts;
    Density.Misses += Proc.Misses;
    (IsDense ? DensePaths : SparsePaths) += Proc.NumPathsExecuted;
  }
  auto Avg = [](uint64_t Paths, uint64_t Num) {
    return Num == 0 ? 0.0 : double(Paths) / double(Num);
  };
  Out.HotPathsPerProc = Avg(HotPaths, Out.Hot.Num);
  Out.ColdPathsPerProc = Avg(ColdPaths, Out.Cold.Num);
  Out.DensePathsPerProc = Avg(DensePaths, Out.Dense.Num);
  Out.SparsePathsPerProc = Avg(SparsePaths, Out.Sparse.Num);
  return Out;
}
