//===- bench/vm_throughput.cpp - engine dispatch throughput -------------------===//
//
// Host-time comparison of the two VM engines: executes a slice of the
// workload suite uninstrumented on the reference switch interpreter and
// on the predecoded threaded engine, and reports simulated instructions
// retired per host second. The threaded engine's predecode pass runs
// inside the timed region — it is part of that engine's cost.
//
// Writes BENCH_vm_throughput.json (machine-readable; the committed copy
// at the repository root records the numbers this change was merged
// with) and prints the same data as a table. Each row reports the median
// of nine pair speed-ups with their quartiles, and the JSON records the
// host's core count.
//
//===----------------------------------------------------------------------===//

#include "support/TableWriter.h"
#include "vm/Vm.h"
#include "workloads/Spec.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace pp;

namespace {

struct Sample {
  uint64_t Insts = 0;
  double Seconds = 0;
  double instsPerSec() const { return double(Insts) / Seconds; }
};

/// One timed execution of a workload on one engine.
Sample timeOnce(const std::string &Name, int Scale, vm::Engine E) {
  auto M = workloads::buildWorkload(Name, Scale);
  if (!M) {
    std::fprintf(stderr, "unknown workload %s\n", Name.c_str());
    std::exit(1);
  }
  hw::Machine Machine;
  vm::Vm VM(*M, Machine);
  VM.setEngine(E);
  auto T0 = std::chrono::steady_clock::now();
  vm::RunResult R = VM.run();
  auto T1 = std::chrono::steady_clock::now();
  if (!R.Ok) {
    std::fprintf(stderr, "%s failed: %s\n", Name.c_str(), R.Error.c_str());
    std::exit(1);
  }
  return {R.ExecutedInsts, std::chrono::duration<double>(T1 - T0).count()};
}

/// Times one workload on both engines as N back-to-back pairs (the
/// within-pair order alternating per rep) and reports the pair whose
/// speedup is the median of the per-pair speedups. Pairing is the noise
/// defence: host frequency drift or a co-tenant burst slows both halves
/// of a pair roughly equally, so the per-pair ratio stays stable even
/// when absolute rates swing; taking the median pair (not the fastest
/// halves independently) keeps the reported rates and ratio
/// self-consistent samples from one moment in time.
///
/// \p Q1Out and \p Q3Out receive the lower and upper quartiles of the
/// per-pair speed-ups, the spread around the median pair's.
void timePair(const std::string &Name, int Scale, Sample &RefOut,
              Sample &ThrOut, double &Q1Out, double &Q3Out) {
  constexpr int Reps = 9;
  timeOnce(Name, Scale, vm::Engine::Reference); // warm the host caches
  std::vector<std::pair<Sample, Sample>> Pairs; // (reference, threaded)
  for (int Rep = 0; Rep != Reps; ++Rep) {
    vm::Engine First =
        (Rep & 1) ? vm::Engine::Threaded : vm::Engine::Reference;
    vm::Engine Second =
        (Rep & 1) ? vm::Engine::Reference : vm::Engine::Threaded;
    Sample A = timeOnce(Name, Scale, First);
    Sample B = timeOnce(Name, Scale, Second);
    Pairs.emplace_back((Rep & 1) ? B : A, (Rep & 1) ? A : B);
  }
  std::sort(Pairs.begin(), Pairs.end(), [](const auto &L, const auto &R) {
    return L.second.Seconds * R.first.Seconds <
           R.second.Seconds * L.first.Seconds; // by threaded/reference ratio
  });
  RefOut = Pairs[Reps / 2].first;
  ThrOut = Pairs[Reps / 2].second;
  // Sorted by descending speed-up: the lower quartile sits high.
  auto Speedup = [](const std::pair<Sample, Sample> &P) {
    return P.second.instsPerSec() / P.first.instsPerSec();
  };
  Q1Out = Speedup(Pairs[Reps - 1 - Reps / 4]);
  Q3Out = Speedup(Pairs[Reps / 4]);
}

std::string fmt(const char *Format, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), Format, Value);
  return Buf;
}

} // namespace

int main() {
  // A branchy interpreter shape, a search shape, and a loop-nest FP shape:
  // together they cover the dispatch patterns that matter for an
  // interpreter (unpredictable indirect control flow vs straight lines).
  struct Target {
    const char *Name;
    int Scale;
  };
  // Scales chosen so each run retires tens of millions of instructions:
  // long enough to amortise the threaded engine's predecode pass (which
  // is timed as part of that engine) and to push wall-clock noise well
  // under the effect being measured.
  const Target Targets[] = {
      {"126.gcc", 200}, {"099.go", 200}, {"101.tomcatv", 100}};

  TableWriter Table;
  Table.setHeader({"Workload", "MInsts", "Ref MI/s", "Thr MI/s", "Speedup",
                   "Q1-Q3"});
  Table.addSeparator();

  uint64_t TotalInsts = 0;
  double RefSeconds = 0, ThrSeconds = 0;
  std::vector<std::string> JsonRows;
  for (const Target &T : Targets) {
    Sample Ref, Thr;
    double Q1 = 0, Q3 = 0;
    timePair(T.Name, T.Scale, Ref, Thr, Q1, Q3);
    TotalInsts += Ref.Insts;
    RefSeconds += Ref.Seconds;
    ThrSeconds += Thr.Seconds;
    double Speedup = Thr.instsPerSec() / Ref.instsPerSec();
    Table.addRow({T.Name, fmt("%.1f", double(Ref.Insts) / 1e6),
                  fmt("%.1f", Ref.instsPerSec() / 1e6),
                  fmt("%.1f", Thr.instsPerSec() / 1e6),
                  fmt("%.2fx", Speedup),
                  fmt("%.2f", Q1) + "-" + fmt("%.2f", Q3)});
    char Row[320];
    std::snprintf(Row, sizeof(Row),
                  "    {\"workload\": \"%s\", \"scale\": %d, "
                  "\"insts\": %llu, \"reference_insts_per_sec\": %.0f, "
                  "\"threaded_insts_per_sec\": %.0f, \"speedup\": %.3f, "
                  "\"speedup_q1\": %.3f, \"speedup_q3\": %.3f}",
                  T.Name, T.Scale, (unsigned long long)Ref.Insts,
                  Ref.instsPerSec(), Thr.instsPerSec(), Speedup, Q1, Q3);
    JsonRows.push_back(Row);
  }

  double RefAgg = double(TotalInsts) / RefSeconds;
  double ThrAgg = double(TotalInsts) / ThrSeconds;
  double Aggregate = ThrAgg / RefAgg;
  Table.addSeparator();
  Table.addRow({"aggregate", fmt("%.1f", double(TotalInsts) / 1e6),
                fmt("%.1f", RefAgg / 1e6), fmt("%.1f", ThrAgg / 1e6),
                fmt("%.2fx", Aggregate), ""});

  std::printf("VM engine throughput (uninstrumented runs, median of 9 "
              "interleaved reps)\n\n%s\n",
              Table.render().c_str());

  std::ofstream Json("BENCH_vm_throughput.json");
  Json << "{\n  \"bench\": \"vm_throughput\",\n  \"hardware_cores\": "
       << std::thread::hardware_concurrency() << ",\n  \"rows\": [\n";
  for (size_t Index = 0; Index != JsonRows.size(); ++Index)
    Json << JsonRows[Index] << (Index + 1 == JsonRows.size() ? "\n" : ",\n");
  Json << "  ],\n";
  char Agg[256];
  std::snprintf(Agg, sizeof(Agg),
                "  \"reference_insts_per_sec\": %.0f,\n"
                "  \"threaded_insts_per_sec\": %.0f,\n"
                "  \"aggregate_speedup\": %.3f\n}\n",
                RefAgg, ThrAgg, Aggregate);
  Json << Agg;
  std::printf("wrote BENCH_vm_throughput.json (aggregate speedup %.2fx)\n",
              Aggregate);
  return 0;
}
