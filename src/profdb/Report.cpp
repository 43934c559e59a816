//===- profdb/Report.cpp - Textual reports over artifacts ---------------------===//

#include "profdb/Report.h"

#include "support/Format.h"
#include "support/TableWriter.h"

#include <algorithm>
#include <map>

using namespace pp;
using namespace pp::profdb;

namespace {

std::string functionName(const std::vector<std::string> &Functions,
                         unsigned FuncId) {
  return FuncId < Functions.size() ? Functions[FuncId]
                                   : "func" + std::to_string(FuncId);
}

struct PathRow {
  unsigned FuncId = 0;
  uint64_t PathSum = 0;
  uint64_t Freq = 0;
  uint64_t Pic0 = 0;
  uint64_t Pic1 = 0;
  /// The owning function's effective k (the fallback ladder can leave it
  /// below the artifact's requested Schema.K).
  unsigned KIters = 1;
};

std::vector<PathRow> flattenPaths(const Artifact &A) {
  std::vector<PathRow> Rows;
  for (const prof::FunctionPathProfile &Profile : A.PathProfiles) {
    if (!Profile.HasProfile)
      continue;
    for (const prof::PathEntry &Entry : Profile.Paths)
      Rows.push_back({Profile.FuncId, Entry.PathSum, Entry.Freq,
                      Entry.Metric0, Entry.Metric1, Profile.KIters});
  }
  return Rows;
}

void sortHottest(std::vector<PathRow> &Rows) {
  std::stable_sort(Rows.begin(), Rows.end(),
                   [](const PathRow &X, const PathRow &Y) {
                     if (X.Pic1 != Y.Pic1)
                       return X.Pic1 > Y.Pic1;
                     if (X.Pic0 != Y.Pic0)
                       return X.Pic0 > Y.Pic0;
                     if (X.FuncId != Y.FuncId)
                       return X.FuncId < Y.FuncId;
                     return X.PathSum < Y.PathSum;
                   });
}

} // namespace

std::string profdb::reportHeader(const Artifact &A) {
  // The k tag only appears for k > 1 so classic artifacts keep their
  // golden-locked header bytes.
  std::string KTag =
      A.Schema.K > 1 ? formatString(", k=%u", A.Schema.K) : std::string();
  return formatString(
      "== %s (scale %llu, %s%s, PIC0=%s, PIC1=%s, runs=%llu) ==\n",
      A.Workload.c_str(), static_cast<unsigned long long>(A.Scale),
      A.Schema.Mode.c_str(), KTag.c_str(), A.Schema.Pic0.c_str(),
      A.Schema.Pic1.c_str(), static_cast<unsigned long long>(A.RunCount));
}

std::string profdb::reportTopPaths(const Artifact &A, size_t Limit) {
  std::string Out = reportHeader(A);
  std::vector<PathRow> Rows = flattenPaths(A);
  if (Rows.empty())
    return Out + "no path profiles in this artifact\n";
  uint64_t TotalPic1 = 0;
  for (const PathRow &Row : Rows)
    TotalPic1 += Row.Pic1;
  sortHottest(Rows);
  if (Rows.size() > Limit)
    Rows.resize(Limit);

  TableWriter Table;
  // k-BL artifacts label the sums as window sums and expose each
  // function's effective k; classic artifacts keep their exact layout.
  bool ShowK = A.Schema.K > 1;
  if (ShowK)
    Table.setHeader(
        {"Function", "k", "WindowSum", "Freq", "PIC0", "PIC1", "PIC1%"});
  else
    Table.setHeader({"Function", "PathSum", "Freq", "PIC0", "PIC1", "PIC1%"});
  for (const PathRow &Row : Rows) {
    std::vector<std::string> Cells{functionName(A.Functions, Row.FuncId)};
    if (ShowK)
      Cells.push_back(std::to_string(Row.KIters));
    Cells.insert(Cells.end(),
                 {std::to_string(Row.PathSum), std::to_string(Row.Freq),
                  std::to_string(Row.Pic0), std::to_string(Row.Pic1),
                  formatPercent(double(Row.Pic1), double(TotalPic1))});
    Table.addRow(std::move(Cells));
  }
  return Out + Table.render();
}

std::string profdb::reportTopProcs(const Artifact &A, size_t Limit) {
  std::string Out = reportHeader(A);
  std::vector<PathRow> Paths = flattenPaths(A);
  if (Paths.empty())
    return Out + "no path profiles in this artifact\n";

  std::map<unsigned, PathRow> ByProc;
  uint64_t TotalPic1 = 0;
  std::map<unsigned, uint64_t> PathsOf;
  for (const PathRow &Row : Paths) {
    PathRow &Into = ByProc[Row.FuncId];
    Into.FuncId = Row.FuncId;
    Into.Freq += Row.Freq;
    Into.Pic0 += Row.Pic0;
    Into.Pic1 += Row.Pic1;
    ++PathsOf[Row.FuncId];
    TotalPic1 += Row.Pic1;
  }
  std::vector<PathRow> Rows;
  for (const auto &[FuncId, Row] : ByProc) {
    (void)FuncId;
    Rows.push_back(Row);
  }
  sortHottest(Rows);
  if (Rows.size() > Limit)
    Rows.resize(Limit);

  TableWriter Table;
  Table.setHeader({"Function", "Paths", "Freq", "PIC0", "PIC1", "PIC1%"});
  for (const PathRow &Row : Rows)
    Table.addRow({functionName(A.Functions, Row.FuncId),
                  std::to_string(PathsOf[Row.FuncId]),
                  std::to_string(Row.Freq), std::to_string(Row.Pic0),
                  std::to_string(Row.Pic1),
                  formatPercent(double(Row.Pic1), double(TotalPic1))});
  return Out + Table.render();
}

std::string profdb::reportCctStats(const Artifact &A) {
  std::string Out = reportHeader(A);
  if (!A.Tree)
    return Out + "no calling context tree in this artifact\n";
  cct::CctStats Stats = A.Tree->computeStats();

  TableWriter Table;
  Table.setHeader({"Stat", "Value"});
  Table.addRow({"Nodes", std::to_string(Stats.NumRecords)});
  Table.addRow({"Heap bytes", std::to_string(Stats.TotalBytes)});
  Table.addRow({"Avg node bytes", formatString("%.1f", Stats.AvgNodeBytes)});
  Table.addRow(
      {"Avg out-degree", formatString("%.1f", Stats.AvgOutDegree)});
  Table.addRow({"Avg leaf depth", formatString("%.1f", Stats.AvgLeafDepth)});
  Table.addRow({"Max depth", std::to_string(Stats.MaxDepth)});
  Table.addRow({"Max replication",
                formatString("%llu (%s)",
                             static_cast<unsigned long long>(
                                 Stats.MaxReplication),
                             Stats.MaxReplicationProc == cct::RootProcId
                                 ? "-"
                                 : functionName(A.Functions,
                                                Stats.MaxReplicationProc)
                                       .c_str())});
  Table.addRow({"Call-site slots", std::to_string(Stats.TotalSlots)});
  Table.addRow({"Used slots", std::to_string(Stats.UsedSlots)});
  Table.addRow({"Backedge slots", std::to_string(Stats.BackedgeSlots)});
  return Out + Table.render();
}

bool profdb::parseCollapsedCounter(const std::string &Text,
                                   CollapsedCounter &Out) {
  if (Text == "calls")
    Out = CollapsedCounter::Calls;
  else if (Text == "pic0")
    Out = CollapsedCounter::Pic0;
  else if (Text == "pic1")
    Out = CollapsedCounter::Pic1;
  else
    return false;
  return true;
}

std::string profdb::collapsedStacks(const Artifact &A,
                                    CollapsedCounter Counter,
                                    std::string &Error) {
  if (!A.Tree) {
    Error = "artifact has no calling context tree";
    return "";
  }
  std::vector<std::string> Lines;
  for (const auto &R : A.Tree->records()) {
    if (R->procId() == cct::RootProcId)
      continue;
    cct::RecordCounts Counts = cct::recordCounts(*R);
    uint64_t Weight = Counter == CollapsedCounter::Calls  ? Counts.Calls
                      : Counter == CollapsedCounter::Pic0 ? Counts.Pic0
                                                          : Counts.Pic1;
    if (Weight == 0)
      continue;
    std::string Line = cct::contextName(
        *R,
        [&A](cct::ProcId Proc) { return functionName(A.Functions, Proc); },
        ";");
    Line += ' ';
    Line += std::to_string(Weight);
    Lines.push_back(std::move(Line));
  }
  std::sort(Lines.begin(), Lines.end());
  std::string Out;
  for (const std::string &Line : Lines) {
    Out += Line;
    Out += '\n';
  }
  return Out;
}

std::string profdb::renderDiff(const ArtifactDiff &Diff, size_t Limit) {
  std::string Out;
  Out += formatString("Per-path deltas (B - A): %zu changed\n\n",
                      Diff.Paths.size());
  if (!Diff.Paths.empty()) {
    TableWriter Table;
    Table.setHeader({"Func", "PathSum", "dFreq", "dPIC0", "dPIC1"});
    size_t Shown = std::min(Limit, Diff.Paths.size());
    for (size_t Index = 0; Index != Shown; ++Index) {
      const PathDelta &D = Diff.Paths[Index];
      Table.addRow({std::to_string(D.FuncId), std::to_string(D.PathSum),
                    formatString("%+lld", static_cast<long long>(D.DFreq)),
                    formatString("%+lld", static_cast<long long>(D.DPic0)),
                    formatString("%+lld", static_cast<long long>(D.DPic1))});
    }
    Out += Table.render();
  }
  Out += formatString("\nPer-context deltas (B - A): %zu changed\n\n",
                      Diff.Contexts.size());
  if (!Diff.Contexts.empty()) {
    TableWriter Table;
    Table.setHeader({"Context", "dCalls", "dPIC0", "dPIC1"});
    size_t Shown = std::min(Limit, Diff.Contexts.size());
    for (size_t Index = 0; Index != Shown; ++Index) {
      const ContextDelta &D = Diff.Contexts[Index];
      Table.addRow({D.Context,
                    formatString("%+lld", static_cast<long long>(D.DCalls)),
                    formatString("%+lld", static_cast<long long>(D.DPic0)),
                    formatString("%+lld", static_cast<long long>(D.DPic1))});
    }
    Out += Table.render();
  }
  return Out;
}
