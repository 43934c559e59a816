//===- bench/profdb_merge.cpp - k-way artifact merge throughput -----------------===//
//
// Times mergeAll's fold of a 256-shard artifact set (099.go at scale 2 —
// the suite's bushiest CCT — under Context-Flow-HW, four D-cache
// geometries replicated 64 ways): the serial in-place fold against the
// chunked fold on the thread pool, and asserts the parallel result is
// bit-identical to the serial one — the determinism contract under its
// production workload. The speedup is the serial fold's time over the
// chunked fold's. A host that cannot run the merge threads at once — fewer
// cores, or cores it shares so that a calibration spin on every thread
// takes longer than on one — cannot measure a parallel speedup, so the
// speedup is then reported as "not measured" rather than as a ratio.
//
// A read leg writes the 256 shards to a temporary directory and times
// listing, reading and decoding them back (listArtifactFiles +
// readArtifactFile, best of 3): the path every repository report and
// fleet ingest starts with. The shards read back must fold to the same
// bytes.
//
// Writes BENCH_profdb_merge.json (machine-readable; CI uploads it as a
// workflow artifact).
//
//===----------------------------------------------------------------------===//

#include "prof/Session.h"
#include "profdb/Artifact.h"
#include "profdb/Merge.h"
#include "profdb/Store.h"
#include "support/Format.h"
#include "support/TableWriter.h"
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

double seconds(std::chrono::steady_clock::time_point From,
               std::chrono::steady_clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

/// How many of \p Threads threads the host runs at once: \p Threads times
/// the fastest of two runs of a fixed spin, over the time of \p Threads
/// spins started together.
double parallelCapacity(unsigned Threads) {
  auto Spin = [] {
    volatile uint64_t Sink = 0;
    for (uint64_t I = 0; I != 50000000; ++I)
      Sink = Sink + I;
  };
  double One = 1e9;
  for (unsigned Rep = 0; Rep != 2; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    Spin();
    One = std::min(One, seconds(T0, std::chrono::steady_clock::now()));
  }
  std::vector<std::thread> Spinners;
  auto T0 = std::chrono::steady_clock::now();
  for (unsigned I = 0; I != Threads; ++I)
    Spinners.emplace_back(Spin);
  for (std::thread &Spinner : Spinners)
    Spinner.join();
  return Threads * One / seconds(T0, std::chrono::steady_clock::now());
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
  // The host must run the threads at once while the merges are timed, so
  // its capacity is taken on both sides of the timing loop.
  double Capacity = parallelCapacity(Threads);
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

  // The read leg: the same shards as files, listed, read and decoded.
  char Template[] = "/tmp/pp-profdb-merge-XXXXXX";
  const char *ShardDir = mkdtemp(Template);
  if (!ShardDir) {
    std::fprintf(stderr, "profdb_merge: cannot create a temp directory\n");
    return 1;
  }
  for (const profdb::Artifact &Shard : MakeShards()) {
    std::string Path = std::string(ShardDir) + "/" +
                       profdb::artifactFileName(Shard.Fingerprint);
    std::string Error;
    if (!profdb::writeArtifactFile(Path, Shard, Error)) {
      std::fprintf(stderr, "profdb_merge: %s\n", Error.c_str());
      return 1;
    }
  }
  double ReadBest = 1e9;
  std::vector<profdb::Artifact> ReadBack;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    ReadBack.clear();
    auto T0 = std::chrono::steady_clock::now();
    for (const std::string &Path : profdb::listArtifactFiles(ShardDir)) {
      profdb::Artifact A;
      profdb::DecodeStatus Status = profdb::readArtifactFile(Path, A);
      if (Status != profdb::DecodeStatus::Ok) {
        std::fprintf(stderr, "profdb_merge: %s: %s\n", Path.c_str(),
                     profdb::decodeStatusName(Status));
        return 1;
      }
      ReadBack.push_back(std::move(A));
    }
    ReadBest = std::min(ReadBest,
                        seconds(T0, std::chrono::steady_clock::now()));
  }
  std::string RemoveDir = std::string("rm -rf ") + ShardDir;
  (void)std::system(RemoveDir.c_str());
  {
    std::string Error;
    profdb::Artifact Out;
    if (ReadBack.size() != NumShards ||
        !profdb::mergeAll(std::move(ReadBack), Out, Error, 1) ||
        profdb::encodeArtifact(Out) != SerialBytes) {
      std::fprintf(stderr, "profdb_merge: shards read back from disk do not "
                           "fold to the serial bytes %s\n",
                   Error.c_str());
      return 1;
    }
  }

  unsigned Cores = std::thread::hardware_concurrency();
  Capacity = std::min(Capacity, parallelCapacity(Threads));
  bool Measured = Cores >= Threads && Capacity + 0.5 >= Threads;
  double Speedup = SerialBest / ParallelBest;
  std::string SpeedupCell =
      Measured ? std::to_string(Speedup).substr(0, 4) + "x" : "not measured";
  auto Ms = [](double Seconds) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.2f", Seconds * 1e3);
    return std::string(Buf);
  };
  TableWriter Table;
  Table.setHeader({"Shards", "Bytes/shard", "Read+decode ms", "Serial ms",
                   "Threads", "Cores", "Capacity", "Parallel ms", "Speedup"});
  Table.addRow({std::to_string(NumShards),
                std::to_string(profdb::encodeArtifact(Variants[0]).size()),
                Ms(ReadBest), Ms(SerialBest), std::to_string(Threads),
                std::to_string(Cores), formatString("%.2f", Capacity),
                Ms(ParallelBest), SpeedupCell});
  std::printf("Profile-repository k-way merge (%u shards, best of %u reps; "
              "parallel bytes == serial bytes == bytes of the shards read "
              "back)\n\n%s",
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
                "  \"read_decode_seconds\": %.6f,\n"
                "  \"serial_seconds\": %.6f,\n"
                "  \"threads\": %u,\n"
                "  \"hardware_cores\": %u,\n"
                "  \"parallel_capacity\": %.2f,\n"
                "  \"parallel_seconds\": %.6f,\n"
                "  \"speedup\": %s,\n"
                "  \"speedup_of\": \"chunked fold over serial fold\",\n"
                "  \"bit_identical\": true\n}\n",
                NumShards, profdb::encodeArtifact(Variants[0]).size(),
                SerialBytes.size(), ReadBest, SerialBest, Threads, Cores,
                Capacity, ParallelBest, SpeedupJson.c_str());
  Json << Buf;
  std::printf("\nwrote BENCH_profdb_merge.json (speedup %s)\n",
              SpeedupCell.c_str());
  return 0;
}
