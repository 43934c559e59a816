//===- bench/profdb_merge.cpp - k-way artifact merge throughput -----------------===//
//
// Times mergeAll's fold of a 256-shard artifact set (099.go at scale 2 —
// the suite's bushiest CCT — under Context-Flow-HW, four D-cache
// geometries replicated 64 ways), median and quartiles of 7, and asserts
// every repetition folds to the same bytes — the determinism contract
// under its production workload. The shards are decoded from the bytes
// the driver deposits for each run (encodeRunArtifact).
//
// A read leg writes the 256 shards to a temporary directory and times
// listing, reading and decoding them back (listArtifactFiles +
// readArtifactFile, median and quartiles of 7): the path every
// repository report and fleet ingest starts with. The shards read back must fold to the same
// bytes too.
//
// Writes BENCH_profdb_merge.json (machine-readable; CI uploads it as a
// workflow artifact).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "prof/Session.h"
#include "profdb/Artifact.h"
#include "profdb/Merge.h"
#include "profdb/Store.h"
#include "support/TableWriter.h"
#include "workloads/Spec.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace pp;
using pp::bench::percentile;

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
  std::vector<std::vector<uint8_t>> Variants;
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
    Variants.push_back(profdb::encodeRunArtifact(
        Outcome, "bench;dcache=" + std::to_string(SizeBytes), Workload,
        Scale, profdb::MetricSchema::of(Options.Config)));
  }
  auto MakeShards = [&Variants] {
    std::vector<profdb::Artifact> Shards(NumShards);
    for (unsigned I = 0; I != NumShards; ++I) {
      profdb::DecodeStatus Status =
          profdb::decodeArtifact(Variants[I % 4], Shards[I]);
      assert(Status == profdb::DecodeStatus::Ok && "shard bytes decode");
      (void)Status;
      Shards[I].Fingerprint += ";replica=" + std::to_string(I / 4);
    }
    return Shards;
  };

  constexpr unsigned Reps = 7;
  std::vector<double> MergeTimes;
  std::vector<uint8_t> MergedBytes;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    std::string Error;
    profdb::Artifact Out;
    std::vector<profdb::Artifact> Shards = MakeShards();
    auto T0 = std::chrono::steady_clock::now();
    if (!profdb::mergeAll(std::move(Shards), Out, Error)) {
      std::fprintf(stderr, "profdb_merge: merge failed: %s\n",
                   Error.c_str());
      return 1;
    }
    MergeTimes.push_back(seconds(T0, std::chrono::steady_clock::now()));
    std::vector<uint8_t> Bytes = profdb::encodeArtifact(Out);
    if (Rep != 0 && Bytes != MergedBytes) {
      std::fprintf(stderr, "profdb_merge: merge diverged from the first "
                           "repetition's bytes (rep %u)\n",
                   Rep);
      return 1;
    }
    MergedBytes = std::move(Bytes);
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
  std::vector<double> ReadTimes;
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
    ReadTimes.push_back(seconds(T0, std::chrono::steady_clock::now()));
  }
  std::string RemoveDir = std::string("rm -rf ") + ShardDir;
  (void)std::system(RemoveDir.c_str());
  {
    std::string Error;
    profdb::Artifact Out;
    if (ReadBack.size() != NumShards ||
        !profdb::mergeAll(std::move(ReadBack), Out, Error) ||
        profdb::encodeArtifact(Out) != MergedBytes) {
      std::fprintf(stderr, "profdb_merge: shards read back from disk do not "
                           "fold to the merged bytes %s\n",
                   Error.c_str());
      return 1;
    }
  }

  double Merge = percentile(MergeTimes, 0.50);
  double Read = percentile(ReadTimes, 0.50);
  auto Ms = [](double Seconds) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.2f", Seconds * 1e3);
    return std::string(Buf);
  };
  TableWriter Table;
  Table.setHeader({"Shards", "Bytes/shard", "Read+decode ms", "Merge ms"});
  Table.addRow({std::to_string(NumShards), std::to_string(Variants[0].size()),
                Ms(Read), Ms(Merge)});
  std::printf("Profile-repository k-way merge (%u shards, median of %u reps; "
              "every repetition and the shards read back fold to the same "
              "bytes)\n\n%s",
              NumShards, Reps, Table.render().c_str());

  std::ofstream Json("BENCH_profdb_merge.json");
  char Buf[1024];
  std::snprintf(Buf, sizeof(Buf),
                "{\n  \"bench\": \"profdb_merge\",\n"
                "  \"shards\": %u,\n"
                "  \"shard_bytes\": %zu,\n"
                "  \"merged_bytes\": %zu,\n"
                "  \"hardware_cores\": %u,\n"
                "  \"reps\": %u,\n"
                "  \"read_decode_seconds\": %.6f,\n"
                "  \"read_decode_seconds_q1\": %.6f,\n"
                "  \"read_decode_seconds_q3\": %.6f,\n"
                "  \"serial_seconds\": %.6f,\n"
                "  \"serial_seconds_q1\": %.6f,\n"
                "  \"serial_seconds_q3\": %.6f,\n"
                "  \"bit_identical\": true\n}\n",
                NumShards, Variants[0].size(), MergedBytes.size(),
                std::thread::hardware_concurrency(), Reps, Read,
                percentile(ReadTimes, 0.25), percentile(ReadTimes, 0.75),
                Merge, percentile(MergeTimes, 0.25),
                percentile(MergeTimes, 0.75));
  Json << Buf;
  std::printf("\nwrote BENCH_profdb_merge.json\n");
  return 0;
}
