//===- perfbench/src/Harness.cpp - Shared benchmark plumbing --------------===//

#include "Harness.h"

#include "cct/Export.h"
#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

using namespace pp;

int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              T0)
      .count();
}

int64_t Tracer::open(const std::string &Name, uint64_t Id, int64_t Parent) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Id = Id;
  S.Parent = Parent;
  S.StartNs = nowNs();
  Spans.push_back(std::move(S));
  return static_cast<int64_t>(Spans.size() - 1);
}

double Tracer::close(int64_t Index) {
  if (Index < 0)
    return 0;
  Span &S = Spans[static_cast<size_t>(Index)];
  S.EndNs = nowNs();
  return double(S.EndNs - S.StartNs) * 1e-9;
}

double Tracer::total(const std::string &Name) const {
  int64_t Ns = 0;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Ns += S.EndNs - S.StartNs;
  return double(Ns) * 1e-9;
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream Out(Path);
  for (const Span &S : Spans)
    Out << "{\"name\":\"" << S.Name << "\",\"start_ns\":" << S.StartNs
        << ",\"end_ns\":" << S.EndNs << ",\"parent\":" << S.Parent
        << ",\"id\":" << S.Id << "}\n";
  return static_cast<bool>(Out);
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * double(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - double(Lo));
}

double StepTimes::fastestSum() const {
  std::vector<double> Best;
  for (const std::vector<double> &Pass : Passes)
    for (size_t Step = 0; Step != Pass.size(); ++Step) {
      if (Step == Best.size())
        Best.push_back(Pass[Step]);
      Best[Step] = std::min(Best[Step], Pass[Step]);
    }
  double Sum = 0;
  for (double Seconds : Best)
    Sum += Seconds;
  return Sum;
}

std::vector<double> StepTimes::totals() const {
  std::vector<double> Out;
  for (const std::vector<double> &Pass : Passes) {
    double Sum = 0;
    for (double Seconds : Pass)
      Sum += Seconds;
    Out.push_back(Sum);
  }
  return Out;
}

std::vector<driver::OutcomePtr> runEach(driver::Driver &D,
                                        std::vector<driver::RunPlan> Plans,
                                        StepTimes &Steps) {
  std::vector<driver::OutcomePtr> Outcomes;
  for (driver::RunPlan &Plan : Plans) {
    Clock::time_point T0 = Clock::now();
    Outcomes.push_back(D.get(D.submit(std::move(Plan))));
    Steps.record(secondsSince(T0));
  }
  return Outcomes;
}

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

void Digest::bytes(const void *Data, size_t Size) {
  const auto *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != Size; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
}

uint64_t outcomeDigest(const prof::RunOutcome &Out) {
  Digest D;
  D.u64(Out.Result.Ok);
  D.u64(Out.Result.ExitValue);
  D.u64(Out.Result.ExecutedInsts);
  for (uint64_t Total : Out.Totals)
    D.u64(Total);
  for (const prof::FunctionPathProfile &P : Out.PathProfiles) {
    D.u64(P.FuncId);
    D.u64(P.HasProfile);
    D.u64(P.NumPaths);
    D.u64(P.Hashed);
    D.u64(P.KIters);
    for (const prof::PathEntry &E : P.Paths) {
      D.u64(E.PathSum);
      D.u64(E.Freq);
      D.u64(E.Metric0);
      D.u64(E.Metric1);
    }
  }
  if (Out.Tree) {
    // The export read back, with each record's path table sorted: the
    // tables are hash maps, so the raw bytes follow insertion history,
    // which a run restored from the cache does not share.
    std::vector<cct::LoadedRecord> Records;
    if (!cct::deserialize(cct::serialize(*Out.Tree), Records))
      return 0;
    D.u64(Records.size());
    for (cct::LoadedRecord &Rec : Records) {
      D.u64(Rec.Proc);
      D.u64(static_cast<uint64_t>(Rec.Parent));
      D.u64(Rec.Metrics.size());
      for (uint64_t M : Rec.Metrics)
        D.u64(M);
      std::sort(Rec.PathCells.begin(), Rec.PathCells.end(),
                [](const auto &A, const auto &B) { return A.first < B.first; });
      D.u64(Rec.PathCells.size());
      for (const auto &[Sum, Cell] : Rec.PathCells) {
        D.u64(Sum);
        D.u64(Cell.Freq);
        D.u64(Cell.Metric0);
        D.u64(Cell.Metric1);
      }
    }
  }
  return D.value();
}

std::string referenceKey(const std::string &Workload, int Scale,
                         const char *Mode) {
  return Workload + " " + std::to_string(Scale) + " " + Mode;
}

bool loadReference(const std::string &Path, ReferenceDigests &Out,
                   std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read reference digests '" + Path + "'";
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Workload, Mode, Hex;
    int Scale = 0;
    if (!(Fields >> Workload >> Scale >> Mode >> Hex)) {
      Error = "malformed reference line: " + Line;
      return false;
    }
    Out[referenceKey(Workload, Scale, Mode.c_str())] =
        std::stoull(Hex, nullptr, 16);
  }
  return true;
}

const ModeName SuiteModes[4] = {{prof::Mode::None, "none"},
                                {prof::Mode::FlowHw, "flowhw"},
                                {prof::Mode::ContextHw, "contexthw"},
                                {prof::Mode::ContextFlow, "contextflow"}};

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::string newDir(const Options &O, const std::string &Stem) {
  static unsigned Next = 0;
  std::string Dir = O.WorkDir + "/" + Stem + "." + std::to_string(Next++);
  std::filesystem::create_directories(Dir);
  return Dir;
}

void settle() { ::sync(); }

void Result::fact(const std::string &Name, double Value) {
  Facts[Name] = formatString("%.6g", Value);
}

void Result::mismatch(const std::string &What, uint64_t Count) {
  Failed += Count;
  Mismatches.push_back(What);
}

} // namespace perfbench
