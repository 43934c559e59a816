//===- bench/profdb_merge.cpp - k-way artifact merge throughput -----------------===//
//
// Times the profile repository's O(log N) pairwise merge reduction over a
// 256-shard artifact set (099.go at scale 2 — the suite's bushiest CCT —
// under Context-Flow-HW, four D-cache geometries replicated 64 ways),
// serial against the thread pool, and asserts the parallel result is
// bit-identical to the serial one — the determinism contract under its
// production workload. A host with fewer cores than merge threads cannot
// measure a parallel speedup, so the speedup is then reported as "not
// measured" rather than as a ratio.
//
// Writes BENCH_profdb_merge.json (machine-readable; CI uploads it as a
// workflow artifact).
//
//===----------------------------------------------------------------------===//

#include "prof/Session.h"
#include "profdb/Artifact.h"
#include "profdb/Merge.h"
#include "support/Format.h"
#include "support/TableWriter.h"
#include "workloads/Spec.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace pp;

namespace {

double seconds(std::chrono::steady_clock::time_point From,
               std::chrono::steady_clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

} // namespace

int main() {
  constexpr unsigned NumShards = 256;
  const char *Workload = "099.go";
  constexpr uint64_t Scale = 2;

  auto Module = workloads::buildWorkload(Workload, Scale);
  if (!Module) {
    std::fprintf(stderr, "profdb_merge: cannot build %s\n", Workload);
    return 1;
  }

  // Four distinct machines (miss counts differ, control flow does not),
  // replicated to 32 shards with distinct fingerprints — the shape of a
  // parameter sweep whose shards a repository merge folds together.
  static const uint64_t Sizes[] = {16 * 1024, 8 * 1024, 4 * 1024, 32 * 1024};
  std::vector<profdb::Artifact> Variants;
  for (uint64_t SizeBytes : Sizes) {
    prof::SessionOptions Options;
    Options.Config.M = prof::Mode::ContextFlowHw;
    Options.MachineCfg.DCache.SizeBytes = SizeBytes;
    prof::RunOutcome Outcome = prof::runProfile(*Module, Options);
    if (!Outcome.Result.Ok) {
      std::fprintf(stderr, "profdb_merge: run failed: %s\n",
                   Outcome.Result.Error.c_str());
      return 1;
    }
    Variants.push_back(profdb::artifactFromOutcome(
        Outcome, *Module, "bench;dcache=" + std::to_string(SizeBytes),
        Workload, Scale, Options.Config));
  }
  auto MakeShards = [&Variants] {
    std::vector<profdb::Artifact> Shards;
    for (unsigned I = 0; I != NumShards; ++I) {
      profdb::Artifact Shard = profdb::cloneArtifact(Variants[I % 4]);
      Shard.Fingerprint += ";replica=" + std::to_string(I / 4);
      Shards.push_back(std::move(Shard));
    }
    return Shards;
  };

  unsigned Threads = profdb::mergeThreadsFromEnv();
  constexpr unsigned Reps = 3;
  double SerialBest = 1e9, ParallelBest = 1e9;
  std::vector<uint8_t> SerialBytes, ParallelBytes;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    std::string Error;
    profdb::Artifact Out;

    std::vector<profdb::Artifact> Shards = MakeShards();
    auto T0 = std::chrono::steady_clock::now();
    if (!profdb::mergeAll(std::move(Shards), Out, Error, 1)) {
      std::fprintf(stderr, "profdb_merge: serial merge failed: %s\n",
                   Error.c_str());
      return 1;
    }
    auto T1 = std::chrono::steady_clock::now();
    SerialBest = std::min(SerialBest, seconds(T0, T1));
    SerialBytes = profdb::encodeArtifact(Out);

    Shards = MakeShards();
    auto T2 = std::chrono::steady_clock::now();
    if (!profdb::mergeAll(std::move(Shards), Out, Error, Threads)) {
      std::fprintf(stderr, "profdb_merge: parallel merge failed: %s\n",
                   Error.c_str());
      return 1;
    }
    auto T3 = std::chrono::steady_clock::now();
    ParallelBest = std::min(ParallelBest, seconds(T2, T3));
    ParallelBytes = profdb::encodeArtifact(Out);

    if (ParallelBytes != SerialBytes) {
      std::fprintf(stderr, "profdb_merge: parallel merge diverged from "
                           "serial bytes (rep %u)\n",
                   Rep);
      return 1;
    }
  }

  unsigned Cores = std::thread::hardware_concurrency();
  bool Measured = Cores >= Threads;
  double Speedup = SerialBest / ParallelBest;
  std::string SpeedupCell =
      Measured ? std::to_string(Speedup).substr(0, 4) + "x" : "not measured";
  auto Ms = [](double Seconds) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.2f", Seconds * 1e3);
    return std::string(Buf);
  };
  TableWriter Table;
  Table.setHeader({"Shards", "Bytes/shard", "Serial ms", "Threads", "Cores",
                   "Parallel ms", "Speedup"});
  Table.addRow({std::to_string(NumShards),
                std::to_string(profdb::encodeArtifact(Variants[0]).size()),
                Ms(SerialBest), std::to_string(Threads),
                std::to_string(Cores), Ms(ParallelBest), SpeedupCell});
  std::printf("Profile-repository k-way merge (%u shards, best of %u reps; "
              "parallel bytes == serial bytes)\n\n%s",
              NumShards, Reps, Table.render().c_str());

  std::ofstream Json("BENCH_profdb_merge.json");
  std::string SpeedupJson =
      Measured ? formatString("%.3f", Speedup) : "\"not measured\"";
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\n  \"bench\": \"profdb_merge\",\n"
                "  \"shards\": %u,\n"
                "  \"shard_bytes\": %zu,\n"
                "  \"merged_bytes\": %zu,\n"
                "  \"serial_seconds\": %.6f,\n"
                "  \"threads\": %u,\n"
                "  \"hardware_cores\": %u,\n"
                "  \"parallel_seconds\": %.6f,\n"
                "  \"speedup\": %s,\n"
                "  \"bit_identical\": true\n}\n",
                NumShards, profdb::encodeArtifact(Variants[0]).size(),
                SerialBytes.size(), SerialBest, Threads, Cores,
                ParallelBest, SpeedupJson.c_str());
  Json << Buf;
  std::printf("\nwrote BENCH_profdb_merge.json (speedup %s)\n",
              SpeedupCell.c_str());
  return 0;
}
