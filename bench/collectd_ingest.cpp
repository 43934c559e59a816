//===- bench/collectd_ingest.cpp - fleet ingest throughput ----------------------===//
//
// Load-tests the pp-collectd ingest service with a simulated fleet of
// 10,000 clients, twice over:
//
//   1. In process: a producer thread ingests the uploads into windowed
//      incremental folds while the main thread queries them, and the
//      folds are asserted byte-identical to a serial reference.
//   2. Over the wire: the same 10,000 framed client sessions are
//      replayed against the epoll socket server by a pool of forked
//      sender *processes* (real connect/write/EOF lifecycles, not
//      threads), with framed queries in flight from the parent; the
//      windows the server folds must match the serial reference byte
//      for byte.
//
// Reports sustained artifacts/sec and p50/p99 query latency for both
// paths, and writes BENCH_collectd.json (machine-readable; CI uploads
// it as a workflow artifact). A latency below the steady clock's
// measured resolution is reported as "not measured", not as a number.
//
// Fork discipline: the parent is threaded (the epoll event thread), so
// forked senders touch no heap — every frame stream is serialized before
// the first fork and children only call collectd::replay, which makes
// system calls only.
//
//===----------------------------------------------------------------------===//

#include "collectd/Client.h"
#include "collectd/Ingest.h"
#include "collectd/Server.h"
#include "collectd/Wire.h"
#include "prof/Session.h"
#include "profdb/Artifact.h"
#include "support/Format.h"
#include "support/TableWriter.h"
#include "workloads/Spec.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pp;

namespace {

double seconds(std::chrono::steady_clock::time_point From,
               std::chrono::steady_clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

/// The steady clock's effective resolution: the smallest nonzero step
/// between back-to-back reads. A latency below it is not a measurement.
double clockResolution() {
  double Best = 1.0;
  for (unsigned Sample = 0; Sample != 1000; ++Sample) {
    auto From = std::chrono::steady_clock::now();
    auto To = std::chrono::steady_clock::now();
    while (To == From)
      To = std::chrono::steady_clock::now();
    Best = std::min(Best, seconds(From, To));
  }
  return Best;
}

/// The \p P quantile of \p Latencies (sorted in place).
double percentile(std::vector<double> &Latencies, double P) {
  std::sort(Latencies.begin(), Latencies.end());
  return Latencies[static_cast<size_t>(P * (Latencies.size() - 1))];
}

} // namespace

int main() {
  constexpr uint64_t NumClients = 10000;
  constexpr uint64_t UploadsPerClient = 1;
  constexpr uint64_t NumWindows = 4;
  constexpr unsigned NumQueries = 256;
  constexpr unsigned NumSenders = 8;
  constexpr unsigned NumWireQueries = 256;
  const char *Workload = "130.li";

  auto Module = workloads::buildWorkload(Workload, 1);
  if (!Module) {
    std::fprintf(stderr, "collectd_ingest: cannot build %s\n", Workload);
    return 1;
  }

  // One real run; every client uploads its artifact under a per-upload
  // fingerprint (distinct fleet machines reporting the same binary).
  prof::SessionOptions Options;
  Options.Config.M = prof::Mode::ContextFlowHw;
  prof::RunOutcome Outcome = prof::runProfile(*Module, Options);
  if (!Outcome.Result.Ok) {
    std::fprintf(stderr, "collectd_ingest: run failed: %s\n",
                 Outcome.Result.Error.c_str());
    return 1;
  }

  const uint64_t TotalUploads = NumClients * UploadsPerClient;
  std::vector<collectd::Upload> Uploads;
  Uploads.reserve(TotalUploads);
  size_t UploadBytes = 0;
  const profdb::MetricSchema Schema = profdb::MetricSchema::of(Options.Config);
  for (uint64_t Index = 0; Index != TotalUploads; ++Index) {
    uint64_t Client = Index / UploadsPerClient;
    collectd::Upload U{"c" + std::to_string(Client), Client % NumWindows,
                       profdb::encodeRunArtifact(
                           Outcome, "fleet;upload" + std::to_string(Index),
                           Workload, 1, Schema)};
    UploadBytes += U.Bytes.size();
    Uploads.push_back(std::move(U));
  }

  // Pre-frame every wire session now, before any service thread exists:
  // HELLO then the client's uploads, one byte stream per client.
  std::vector<std::vector<uint8_t>> Sessions(NumClients);
  for (uint64_t Client = 0; Client != NumClients; ++Client) {
    std::span<const collectd::Upload> Own(
        Uploads.data() + Client * UploadsPerClient, UploadsPerClient);
    Sessions[Client] = collectd::encodeSession(Own[0].Tenant, "exact", Own);
  }

  // Serial reference fold for both determinism checks.
  std::vector<std::vector<std::vector<uint8_t>>> Reference(NumWindows);
  {
    collectd::IngestService Service(collectd::IngestConfig{});
    for (const collectd::Upload &U : Uploads)
      Service.ingestNow(U);
    for (uint64_t W = 0; W != NumWindows; ++W) {
      std::string Error;
      Reference[W] = Service.windowBytes(W, Error);
      if (Reference[W].empty()) {
        std::fprintf(stderr, "collectd_ingest: reference fold failed: %s\n",
                     Error.c_str());
        return 1;
      }
    }
  }

  unsigned Cores = std::thread::hardware_concurrency();
  double IngestSeconds = 0;
  double P50 = 0, P99 = 0;
  {
    collectd::IngestService Service(collectd::IngestConfig{});

    // Feed the fleet from one producer thread while the main thread
    // runs queries against whatever the windows hold so far — the
    // service's steady state, not an idle postmortem.
    auto T0 = std::chrono::steady_clock::now();
    std::thread Producer([&Service, &Uploads] {
      for (const collectd::Upload &U : Uploads)
        Service.ingestNow(U);
    });

    std::vector<double> QueryLatencies;
    QueryLatencies.reserve(NumQueries);
    for (unsigned Q = 0; Q != NumQueries; ++Q) {
      uint64_t Window = Q % NumWindows;
      std::string Error;
      auto Tq0 = std::chrono::steady_clock::now();
      std::string Out = Service.queryTopProcs(Window, 10, Error);
      auto Tq1 = std::chrono::steady_clock::now();
      // Early queries may beat the first accepted upload of a window;
      // those answer "no such window", which is itself a served query.
      (void)Out;
      QueryLatencies.push_back(seconds(Tq0, Tq1));
    }

    Producer.join();
    auto T1 = std::chrono::steady_clock::now();
    IngestSeconds = seconds(T0, T1);

    collectd::IngestStats Stats = Service.stats();
    if (Stats.Accepted != TotalUploads) {
      std::fprintf(stderr,
                   "collectd_ingest: expected %llu accepted, got %llu\n",
                   static_cast<unsigned long long>(TotalUploads),
                   static_cast<unsigned long long>(Stats.Accepted));
      return 1;
    }

    std::string Error;
    if (Service.windowBytes(0, Error) != Reference[0]) {
      std::fprintf(stderr, "collectd_ingest: in-process fold diverged "
                           "from the serial reference\n");
      return 1;
    }

    P50 = percentile(QueryLatencies, 0.50);
    P99 = percentile(QueryLatencies, 0.99);
  }

  // --- Wire phase: the same 10k sessions through real sockets. -------
  collectd::IngestService WireService(collectd::IngestConfig{});
  collectd::ServerConfig ServerCfg;
  ServerCfg.IdleTimeoutMs = 60000;
  collectd::Server Server(ServerCfg, WireService);
  std::string Error;
  if (!Server.start(Error)) {
    std::fprintf(stderr, "collectd_ingest: server: %s\n", Error.c_str());
    return 1;
  }

  // Each forked sender replays a contiguous slice of sessions, one
  // connection at a time — NumSenders concurrent connections against
  // the loop, with full connect/upload/EOF lifecycles per client.
  auto W0 = std::chrono::steady_clock::now();
  std::vector<pid_t> Senders;
  for (unsigned S = 0; S != NumSenders; ++S) {
    uint64_t Begin = NumClients * S / NumSenders;
    uint64_t End = NumClients * (S + 1) / NumSenders;
    pid_t Pid = ::fork();
    if (Pid < 0) {
      std::fprintf(stderr, "collectd_ingest: fork failed\n");
      return 1;
    }
    if (Pid == 0) {
      for (uint64_t Client = Begin; Client != End; ++Client) {
        int Rc = collectd::replay("127.0.0.1", Server.port(),
                                  Sessions[Client].data(),
                                  Sessions[Client].size());
        if (Rc != 0)
          ::_exit(Rc);
      }
      ::_exit(0);
    }
    Senders.push_back(Pid);
  }

  // Framed queries ride alongside the upload storm on the parent's own
  // connection; their latency includes the server's synchronous folds.
  std::vector<double> WireLatencies;
  WireLatencies.reserve(NumWireQueries);
  {
    collectd::Client Client;
    if (!Client.connect("127.0.0.1", Server.port()) ||
        !Client.hello("bench-query", "exact")) {
      std::fprintf(stderr, "collectd_ingest: query client hello failed: %s\n",
                   Client.error().c_str());
      return 1;
    }
    collectd::Frame Reply;
    for (unsigned Q = 0; Q != NumWireQueries; ++Q) {
      collectd::Frame Query;
      Query.Type = collectd::FrameType::Query;
      Query.Serial = Q + 1;
      Query.Kind = collectd::QueryKind::TopProcs;
      Query.Window = Q % NumWindows;
      Query.Limit = 10;
      auto Tq0 = std::chrono::steady_clock::now();
      if (!Client.send(Query) ||
          Client.receive(Reply) != collectd::WireStatus::Ok) {
        std::fprintf(stderr, "collectd_ingest: wire query %u failed: %s\n", Q,
                     Client.error().c_str());
        return 1;
      }
      auto Tq1 = std::chrono::steady_clock::now();
      WireLatencies.push_back(seconds(Tq0, Tq1));
    }
  }

  for (pid_t Pid : Senders) {
    int Status = 0;
    if (::waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
        WEXITSTATUS(Status) != 0) {
      std::fprintf(stderr, "collectd_ingest: sender %d failed (status %d)\n",
                   Pid, Status);
      return 1;
    }
  }
  auto W1 = std::chrono::steady_clock::now();
  double WireSeconds = seconds(W0, W1);
  Server.stop();

  collectd::IngestStats WireStats = WireService.stats();
  collectd::ServerStats NetStats = Server.stats();
  if (WireStats.Accepted != TotalUploads) {
    std::fprintf(stderr,
                 "collectd_ingest: wire expected %llu accepted, got %llu\n",
                 static_cast<unsigned long long>(TotalUploads),
                 static_cast<unsigned long long>(WireStats.Accepted));
    return 1;
  }
  for (uint64_t W = 0; W != NumWindows; ++W) {
    if (WireService.windowBytes(W, Error) != Reference[W]) {
      std::fprintf(stderr, "collectd_ingest: wire fold of window %llu "
                           "diverged from the serial reference\n",
                   static_cast<unsigned long long>(W));
      return 1;
    }
  }

  double WireP50 = percentile(WireLatencies, 0.50);
  double WireP99 = percentile(WireLatencies, 0.99);
  double PerSec = TotalUploads / IngestSeconds;
  double WirePerSec = TotalUploads / WireSeconds;

  double Resolution = clockResolution();
  auto Ms = [Resolution](double Seconds) {
    return Seconds < Resolution ? std::string("not measured")
                                : formatString("%.3g", Seconds * 1e3);
  };
  auto JsonSeconds = [Resolution](double Seconds) {
    return Seconds < Resolution ? std::string("\"not measured\"")
                                : formatString("%.9f", Seconds);
  };
  TableWriter Table;
  Table.setHeader({"Path", "Clients", "Uploads", "Artifacts/s",
                   "Query p50 ms", "Query p99 ms"});
  Table.addRow({"in-process", std::to_string(NumClients),
                std::to_string(TotalUploads),
                std::to_string((uint64_t)PerSec), Ms(P50), Ms(P99)});
  Table.addRow({"wire", std::to_string(NumClients),
                std::to_string(TotalUploads),
                std::to_string((uint64_t)WirePerSec), Ms(WireP50),
                Ms(WireP99)});
  std::printf("Fleet ingest (%llu clients, %u sender processes on the "
              "wire path; every fold byte-identical to the serial "
              "reference)\n\n%s",
              static_cast<unsigned long long>(NumClients), NumSenders,
              Table.render().c_str());

  std::ofstream Json("BENCH_collectd.json");
  char Buf[2048];
  std::snprintf(Buf, sizeof(Buf),
                "{\n  \"bench\": \"collectd_ingest\",\n"
                "  \"clients\": %llu,\n"
                "  \"uploads\": %llu,\n"
                "  \"upload_bytes\": %zu,\n"
                "  \"windows\": %llu,\n"
                "  \"hardware_cores\": %u,\n"
                "  \"ingest_seconds\": %.6f,\n"
                "  \"artifacts_per_second\": %.1f,\n"
                "  \"queries\": %u,\n"
                "  \"clock_resolution_seconds\": %.9f,\n"
                "  \"query_p50_seconds\": %s,\n"
                "  \"query_p99_seconds\": %s,\n"
                "  \"bit_identical\": true,\n"
                "  \"wire_sender_processes\": %u,\n"
                "  \"wire_seconds\": %.6f,\n"
                "  \"wire_artifacts_per_second\": %.1f,\n"
                "  \"wire_queries\": %u,\n"
                "  \"wire_query_p50_seconds\": %s,\n"
                "  \"wire_query_p99_seconds\": %s,\n"
                "  \"wire_connections\": %llu,\n"
                "  \"wire_frames_in\": %llu,\n"
                "  \"wire_bytes_in\": %llu,\n"
                "  \"wire_bytes_out\": %llu,\n"
                "  \"wire_bit_identical\": true\n}\n",
                static_cast<unsigned long long>(NumClients),
                static_cast<unsigned long long>(TotalUploads), UploadBytes,
                static_cast<unsigned long long>(NumWindows), Cores,
                IngestSeconds, PerSec, NumQueries, Resolution,
                JsonSeconds(P50).c_str(), JsonSeconds(P99).c_str(),
                NumSenders, WireSeconds, WirePerSec, NumWireQueries,
                JsonSeconds(WireP50).c_str(), JsonSeconds(WireP99).c_str(),
                static_cast<unsigned long long>(NetStats.ConnectionsAccepted),
                static_cast<unsigned long long>(NetStats.FramesIn),
                static_cast<unsigned long long>(NetStats.BytesIn),
                static_cast<unsigned long long>(NetStats.BytesOut));
  Json << Buf;
  std::printf("\nwrote BENCH_collectd.json (%.0f artifacts/s in process, "
              "%.0f artifacts/s over the wire)\n",
              PerSec, WirePerSec);
  return 0;
}
