//===- analysis/HotPaths.h - Hot path / procedure analysis -----*- C++ -*-===//
///
/// \file
/// The paper's §6.4 analyses: classify executed paths as hot (at least a
/// threshold fraction — 1% by default — of the program's L1 D-cache
/// misses) or cold, and hot paths as dense (miss ratio above the program
/// average) or sparse; then the same at procedure granularity, including
/// the paths-per-procedure counts that make the paper's case that
/// procedure-level reporting cannot isolate hot paths.
///
//===----------------------------------------------------------------------===//

#ifndef PP_ANALYSIS_HOTPATHS_H
#define PP_ANALYSIS_HOTPATHS_H

#include "prof/Session.h"

#include <cstdint>
#include <vector>

namespace pp {
namespace analysis {

/// One executed path with its measurements (from a Flow-and-HW run with
/// PIC0 = instructions, PIC1 = D-cache read misses).
struct PathRecord {
  unsigned FuncId = 0;
  uint64_t PathSum = 0;
  uint64_t Freq = 0;
  uint64_t Insts = 0;
  uint64_t Misses = 0;
};

/// Flattens FlowHw path profiles (a run's, or a stored artifact's) into
/// path records, function by function in the profiles' order.
std::vector<PathRecord>
collectPathRecords(const std::vector<prof::FunctionPathProfile> &Profiles);
/// The path records of a FlowHw RunOutcome.
std::vector<PathRecord> collectPathRecords(const prof::RunOutcome &Outcome);

/// Sums over one class of paths or procedures.
struct ClassStats {
  uint64_t Num = 0;
  uint64_t Insts = 0;
  uint64_t Misses = 0;
};

/// The Table 4 classification for one program.
struct HotPathAnalysis {
  uint64_t TotalPaths = 0;
  uint64_t TotalInsts = 0;
  uint64_t TotalMisses = 0;
  ClassStats Hot, Cold, Dense, Sparse;
  /// Indices (into the input records) of the hot paths, densest first.
  std::vector<size_t> HotIndices;
};

/// Classifies \p Records with hot threshold \p Threshold (fraction of total
/// misses; the paper uses 0.01, and 0.001 for go/gcc).
HotPathAnalysis analyzeHotPaths(const std::vector<PathRecord> &Records,
                                double Threshold);

/// Per-procedure aggregate of path records.
struct ProcRecord {
  unsigned FuncId = 0;
  uint64_t NumPathsExecuted = 0;
  uint64_t Freq = 0;
  uint64_t Insts = 0;
  uint64_t Misses = 0;
};

std::vector<ProcRecord>
aggregateByProcedure(const std::vector<PathRecord> &Records);

/// The Table 5 classification for one program.
struct HotProcAnalysis {
  uint64_t TotalMisses = 0;
  uint64_t TotalInsts = 0;
  ClassStats Hot, Cold, Dense, Sparse;
  /// Average executed paths per procedure in each class.
  double HotPathsPerProc = 0;
  double ColdPathsPerProc = 0;
  double DensePathsPerProc = 0;
  double SparsePathsPerProc = 0;
};

HotProcAnalysis analyzeHotProcs(const std::vector<ProcRecord> &Procs,
                                double Threshold);

} // namespace analysis
} // namespace pp

#endif // PP_ANALYSIS_HOTPATHS_H
