//===- tools/pp-collectd/Main.cpp - Fleet ingest daemon ------------------------===//
//
// The collector's front door. Four feeding modes:
//
//   pp-collectd --ingest=DIR [--window=N]   upload every .ppa in DIR
//   pp-collectd --clients=N [...]           simulate a fleet: N clients
//                                           running instrumented workloads
//                                           and uploading their artifacts
//   pp-collectd --serve=PORT [...]          socket front end: accept
//                                           framed uploads over TCP
//   pp-collectd --connect=HOST:PORT [...]   fleet client: upload the
//                                           simulated artifacts over the
//                                           wire instead of in process
//
// Either way, uploads flow through the bounded-queue ingest service into
// per-window incremental folds, and the folded windows answer the same queries
// pp-report does (top-paths / top-procs / cct-stats) — plus an ingest
// stats table with every typed rejection reason.
//
//===----------------------------------------------------------------------===//

#include "collectd/Ingest.h"
#include "collectd/Server.h"
#include "collectd/Wire.h"
#include "driver/Driver.h"
#include "obs/Obs.h"
#include "profdb/Artifact.h"
#include "profdb/Store.h"
#include "support/Format.h"
#include "support/TableWriter.h"

#include <arpa/inet.h>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pp;

namespace {

void printUsage() {
  std::printf(
      "usage: pp-collectd [options]\n"
      "\n"
      "Fleet profile collector: ingests .ppa artifact uploads into\n"
      "time-windowed incremental folds and serves pp-report-style\n"
      "queries over the folded windows.\n"
      "\n"
      "feeding (pick one):\n"
      "  --ingest=<dir>     upload every .ppa artifact in <dir>\n"
      "  --clients=<n>      simulate <n> fleet clients (default 8)\n"
      "  --serve=<port>     accept framed uploads over TCP (0 = ephemeral;\n"
      "                     the chosen port is printed)\n"
      "  --connect=<host:port>  upload the simulated fleet's artifacts\n"
      "                     over the wire to a --serve collector\n"
      "\n"
      "simulation options:\n"
      "  --uploads=<n>      uploads per client (default 2)\n"
      "  --workloads=<a,b>  source workloads (default 130.li,129.compress)\n"
      "  --corrupt-every=<n> flip one byte of every nth upload, showing\n"
      "                     the typed corrupt-rejection path\n"
      "\n"
      "service options:\n"
      "  --window=<n>       window for --ingest uploads (default 0)\n"
      "  --windows=<n>      windows simulated uploads spread over (default 2)\n"
      "  --threads=<n>      ingest workers; 0 = synchronous (default 4)\n"
      "  --queue=<n>        bounded queue capacity (default 256)\n"
      "  --quota=<n>        accepted uploads per tenant+window (0 = off)\n"
      "  --rate=<n>         per-tenant sustained uploads/second (0 = off)\n"
      "  --burst=<n>        per-tenant burst allowance (0 = max(1, rate))\n"
      "  --retain=<n>       resident-window cap: persist + drop the oldest\n"
      "                     beyond <n> (0 = unlimited; needs --store)\n"
      "  --store=<dir>      persist folded windows to <dir>/w<id>/ as .ppa\n"
      "\n"
      "serve options:\n"
      "  --expect-uploads=<n>  exit once <n> uploads have been served and\n"
      "                     every connection has closed (tests/benches;\n"
      "                     default: run until SIGINT/SIGTERM)\n"
      "  --idle-timeout-ms=<n>  close silent connections (default 30000)\n"
      "\n"
      "queries (printed per window after ingest):\n"
      "  --top-paths=<n>    hottest Ball-Larus paths by PIC1\n"
      "  --top-procs=<n>    hottest procedures by PIC1\n"
      "  --cct-stats        calling-context-tree statistics\n");
}

bool parseCount(const char *Flag, const char *Text, uint64_t &Out) {
  if (parseUint64(Text, Out))
    return true;
  std::fprintf(stderr, "pp-collectd: bad %s '%s' (want a number)\n", Flag,
               Text);
  return false;
}

std::vector<std::string> splitList(const std::string &Text) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Comma = Text.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Text.size();
    if (Comma != Pos)
      Out.push_back(Text.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

/// Encoded uploads for the simulated fleet: each workload runs once in
/// Flow-and-HW (path queries) and once in Context-and-Flow-and-HW (CCT
/// queries), then each client's uploads are those runs' artifacts under
/// per-upload fingerprints — exactly what distinct fleet machines
/// reporting the same binary would send.
bool buildUploadPool(const std::vector<std::string> &Workloads,
                     uint64_t Clients, uint64_t UploadsPerClient,
                     std::vector<std::vector<uint8_t>> &Pool) {
  driver::Driver D(/*DiskDir=*/"", /*Threads=*/0);
  struct Source {
    driver::OutcomePtr Run;
    driver::RunKey Key;
  };
  std::vector<Source> Sources;
  for (const std::string &Name : Workloads) {
    for (prof::Mode M : {prof::Mode::FlowHw, prof::Mode::ContextFlowHw}) {
      driver::RunPlan Plan;
      Plan.Workload = Name;
      Plan.Options.Config.M = M;
      Source S;
      S.Run = D.run(Plan);
      if (!S.Run || !S.Run->Result.Ok) {
        std::fprintf(stderr, "pp-collectd: workload '%s' failed: %s\n",
                     Name.c_str(),
                     S.Run ? S.Run->Result.Error.c_str() : "no outcome");
        return false;
      }
      S.Key = driver::RunKey::of(Plan);
      Sources.push_back(std::move(S));
    }
  }

  uint64_t Total = Clients * UploadsPerClient;
  for (uint64_t Index = 0; Index != Total; ++Index) {
    const Source &S = Sources[Index % Sources.size()];
    Pool.push_back(profdb::encodeRunArtifact(
        *S.Run,
        formatString("sim;%s;upload%llu", S.Key.Workload.c_str(),
                     static_cast<unsigned long long>(Index)),
        S.Key.Workload, S.Key.Scale, S.Key.Schema));
  }
  return true;
}

void printStats(const collectd::IngestService &Service) {
  collectd::IngestStats Stats = Service.stats();
  TableWriter Table;
  Table.setHeader({"Ingest", "Count"});
  Table.addRow({"submitted", std::to_string(Stats.Submitted)});
  Table.addRow({"accepted", std::to_string(Stats.Accepted)});
  Table.addRow({"rejected", std::to_string(Stats.Rejected)});
  for (unsigned R = 1;
       R != static_cast<unsigned>(collectd::RejectReason::NumReasons); ++R)
    Table.addRow({formatString("  %s", collectd::rejectReasonName(
                                           collectd::RejectReason(R))),
                  std::to_string(Stats.RejectedBy[R])});
  Table.addRow({"windows", std::to_string(Stats.Windows)});
  Table.addRow({"queries", std::to_string(Stats.Queries)});
  Table.addRow({"windows expired", std::to_string(Stats.WindowsExpired)});
  std::printf("%s", Table.render().c_str());
}

void printServerStats(const collectd::ServerStats &S) {
  TableWriter Table;
  Table.setHeader({"Serve", "Count"});
  Table.addRow({"connections", std::to_string(S.ConnectionsAccepted)});
  Table.addRow({"frames in", std::to_string(S.FramesIn)});
  Table.addRow({"frames out", std::to_string(S.FramesOut)});
  Table.addRow({"bytes in", std::to_string(S.BytesIn)});
  Table.addRow({"bytes out", std::to_string(S.BytesOut)});
  Table.addRow({"uploads", std::to_string(S.Uploads)});
  Table.addRow({"queries", std::to_string(S.Queries)});
  Table.addRow({"protocol errors", std::to_string(S.ProtocolErrors)});
  Table.addRow({"idle closed", std::to_string(S.IdleClosed)});
  Table.addRow({"read pauses", std::to_string(S.ReadPauses)});
  std::printf("%s", Table.render().c_str());
}

/// Parses "--connect=<host:port>" at flag time: dotted-quad host, port in
/// [1, 65535]. Every failure is a typed parse error, not a connect-time
/// surprise.
bool parseEndpoint(const char *Text, std::string &Host, uint16_t &Port) {
  std::string Spec = Text;
  size_t Colon = Spec.rfind(':');
  if (Colon == std::string::npos || Colon == 0) {
    std::fprintf(stderr,
                 "pp-collectd: bad --connect '%s' (want host:port)\n", Text);
    return false;
  }
  Host = Spec.substr(0, Colon);
  in_addr Probe;
  if (inet_pton(AF_INET, Host.c_str(), &Probe) != 1) {
    std::fprintf(stderr,
                 "pp-collectd: bad --connect host '%s' (want a dotted-quad "
                 "address)\n",
                 Host.c_str());
    return false;
  }
  uint64_t Value;
  if (!parseUint64(Spec.c_str() + Colon + 1, Value) || Value == 0 ||
      Value > 65535) {
    std::fprintf(stderr,
                 "pp-collectd: bad --connect port '%s' (want 1..65535)\n",
                 Spec.c_str() + Colon + 1);
    return false;
  }
  Port = static_cast<uint16_t>(Value);
  return true;
}

/// A minimal blocking client for the framed protocol: connect, write
/// whole frames, read whole frames.
class WireClient {
public:
  ~WireClient() { disconnect(); }

  bool connectTo(const std::string &Host, uint16_t Port, std::string &Error) {
    Fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0) {
      Error = std::string("socket: ") + strerror(errno);
      return false;
    }
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr);
    if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      Error = formatString("connect %s:%u: %s", Host.c_str(), unsigned(Port),
                           strerror(errno));
      disconnect();
      return false;
    }
    return true;
  }

  bool sendFrame(const collectd::Frame &F, std::string &Error) {
    std::vector<uint8_t> Bytes = collectd::encodeFrame(F);
    size_t Sent = 0;
    while (Sent != Bytes.size()) {
      ssize_t Got = send(Fd, Bytes.data() + Sent, Bytes.size() - Sent,
                         MSG_NOSIGNAL);
      if (Got < 0) {
        if (errno == EINTR)
          continue;
        Error = std::string("send: ") + strerror(errno);
        return false;
      }
      Sent += static_cast<size_t>(Got);
    }
    return true;
  }

  bool readFrame(collectd::Frame &Out, std::string &Error) {
    for (;;) {
      collectd::WireStatus Status = Decoder.next(Out);
      if (Status == collectd::WireStatus::Ok)
        return true;
      if (Status != collectd::WireStatus::NeedMore) {
        Error = formatString("stream error: %s",
                             collectd::wireStatusName(Status));
        return false;
      }
      uint8_t Chunk[64 * 1024];
      ssize_t Got = recv(Fd, Chunk, sizeof(Chunk), 0);
      if (Got < 0) {
        if (errno == EINTR)
          continue;
        Error = std::string("recv: ") + strerror(errno);
        return false;
      }
      if (Got == 0) {
        Error = "server closed the connection";
        return false;
      }
      Decoder.feed(Chunk, static_cast<size_t>(Got));
    }
  }

  void disconnect() {
    if (Fd >= 0)
      close(Fd);
    Fd = -1;
  }

private:
  int Fd = -1;
  collectd::FrameDecoder Decoder;
};

volatile std::sig_atomic_t StopRequested = 0;

void onStopSignal(int) { StopRequested = 1; }

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Clients = 8, Uploads = 2, Windows = 2, Window = 0;
  uint64_t CorruptEvery = 0, TopPaths = 0, TopProcs = 0;
  uint64_t ExpectUploads = 0, IdleTimeoutMs = 30000;
  bool CctStats = false, ClientsSet = false, ServeSet = false;
  uint64_t ServePort = 0;
  std::string ConnectHost;
  uint16_t ConnectPort = 0;
  std::string IngestDir, WorkloadList = "130.li,129.compress";
  collectd::IngestConfig Config;
  Config.Threads = 4;
  Config.QueueCapacity = 256;

  for (int Index = 1; Index != Argc; ++Index) {
    std::string Arg = Argv[Index];
    auto Value = [&Arg](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
    };
    uint64_t N;
    if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    } else if (const char *V = Value("--ingest=")) {
      IngestDir = V;
    } else if (const char *V = Value("--clients=")) {
      if (!parseCount("--clients", V, Clients))
        return 1;
      if (Clients == 0) {
        std::fprintf(stderr, "pp-collectd: --clients wants at least 1\n");
        return 1;
      }
      ClientsSet = true;
    } else if (const char *V = Value("--uploads=")) {
      if (!parseCount("--uploads", V, Uploads))
        return 1;
      if (Uploads == 0) {
        std::fprintf(stderr, "pp-collectd: --uploads wants at least 1\n");
        return 1;
      }
    } else if (const char *V = Value("--workloads=")) {
      WorkloadList = V;
    } else if (const char *V = Value("--corrupt-every=")) {
      if (!parseCount("--corrupt-every", V, CorruptEvery))
        return 1;
      if (CorruptEvery == 0) {
        std::fprintf(stderr,
                     "pp-collectd: --corrupt-every wants at least 1 "
                     "(omit the flag to corrupt nothing)\n");
        return 1;
      }
    } else if (const char *V = Value("--serve=")) {
      if (!parseCount("--serve", V, ServePort) || ServePort > 65535) {
        std::fprintf(stderr,
                     "pp-collectd: bad --serve port '%s' (want 0..65535; "
                     "0 = ephemeral)\n",
                     V);
        return 1;
      }
      ServeSet = true;
    } else if (const char *V = Value("--connect=")) {
      if (!parseEndpoint(V, ConnectHost, ConnectPort))
        return 1;
    } else if (const char *V = Value("--expect-uploads=")) {
      if (!parseCount("--expect-uploads", V, ExpectUploads))
        return 1;
    } else if (const char *V = Value("--idle-timeout-ms=")) {
      if (!parseCount("--idle-timeout-ms", V, IdleTimeoutMs))
        return 1;
    } else if (const char *V = Value("--rate=")) {
      if (!parseCount("--rate", V, N))
        return 1;
      Config.TenantRatePerSec = static_cast<double>(N);
    } else if (const char *V = Value("--burst=")) {
      if (!parseCount("--burst", V, N))
        return 1;
      Config.TenantRateBurst = static_cast<double>(N);
    } else if (const char *V = Value("--retain=")) {
      if (!parseCount("--retain", V, N))
        return 1;
      Config.RetainWindows = N;
    } else if (const char *V = Value("--window=")) {
      if (!parseCount("--window", V, Window))
        return 1;
    } else if (const char *V = Value("--windows=")) {
      if (!parseCount("--windows", V, Windows) || Windows == 0) {
        std::fprintf(stderr, "pp-collectd: --windows wants at least 1\n");
        return 1;
      }
    } else if (const char *V = Value("--threads=")) {
      if (!parseCount("--threads", V, N))
        return 1;
      Config.Threads = static_cast<unsigned>(N);
    } else if (const char *V = Value("--queue=")) {
      if (!parseCount("--queue", V, N) || N == 0) {
        std::fprintf(stderr, "pp-collectd: --queue wants at least 1\n");
        return 1;
      }
      Config.QueueCapacity = N;
    } else if (const char *V = Value("--quota=")) {
      if (!parseCount("--quota", V, Config.TenantWindowQuota))
        return 1;
    } else if (const char *V = Value("--store=")) {
      Config.StoreDir = V;
    } else if (const char *V = Value("--top-paths=")) {
      if (!parseCount("--top-paths", V, TopPaths))
        return 1;
    } else if (const char *V = Value("--top-procs=")) {
      if (!parseCount("--top-procs", V, TopProcs))
        return 1;
    } else if (Arg == "--cct-stats") {
      CctStats = true;
    } else {
      std::fprintf(stderr, "pp-collectd: unknown option '%s'\n",
                   Arg.c_str());
      return 1;
    }
  }
  // --ingest, --serve, and --connect are modes; --clients parameterises
  // both the in-process simulation and --connect's wire fleet.
  int Modes = (!IngestDir.empty() ? 1 : 0) + (ServeSet ? 1 : 0) +
              (!ConnectHost.empty() ? 1 : 0);
  if (Modes > 1) {
    std::fprintf(stderr,
                 "pp-collectd: --ingest, --serve, and --connect are "
                 "mutually exclusive\n");
    return 1;
  }
  if (ClientsSet && (!IngestDir.empty() || ServeSet)) {
    std::fprintf(stderr,
                 "pp-collectd: --clients only applies to the simulation "
                 "and --connect modes\n");
    return 1;
  }

  // ---- client mode: upload the simulated fleet over the wire ----
  if (!ConnectHost.empty()) {
    std::vector<std::string> Workloads = splitList(WorkloadList);
    if (Workloads.empty()) {
      std::fprintf(stderr, "pp-collectd: --workloads names no workload\n");
      return 1;
    }
    std::vector<std::vector<uint8_t>> Pool;
    if (!buildUploadPool(Workloads, Clients, Uploads, Pool))
      return 1;

    uint64_t Accepted = 0;
    uint64_t RejectedBy[static_cast<size_t>(
        collectd::RejectReason::NumReasons)] = {};
    for (uint64_t Client = 0; Client != Clients; ++Client) {
      WireClient Wire;
      std::string Error;
      if (!Wire.connectTo(ConnectHost, ConnectPort, Error)) {
        std::fprintf(stderr, "pp-collectd: %s\n", Error.c_str());
        return 1;
      }
      collectd::Frame Hello;
      Hello.Type = collectd::FrameType::Hello;
      Hello.Tenant = formatString("c%llu",
                                  static_cast<unsigned long long>(Client));
      Hello.Acquisition = Config.Acquisition;
      collectd::Frame Reply;
      if (!Wire.sendFrame(Hello, Error) || !Wire.readFrame(Reply, Error)) {
        std::fprintf(stderr, "pp-collectd: hello failed: %s\n",
                     Error.c_str());
        return 1;
      }
      if (Reply.Type != collectd::FrameType::Ack) {
        std::fprintf(stderr, "pp-collectd: hello rejected: %s\n",
                     Reply.Message.c_str());
        return 1;
      }
      // Pipeline every upload, then read the verdicts in order.
      for (uint64_t U = 0; U != Uploads; ++U) {
        uint64_t Index = Client * Uploads + U;
        collectd::Frame Up;
        Up.Type = collectd::FrameType::Upload;
        Up.Serial = Index;
        Up.Window = Client % Windows;
        Up.Artifact = Pool[Index];
        if (CorruptEvery && (Index + 1) % CorruptEvery == 0 &&
            Up.Artifact.size() > 16)
          Up.Artifact[Up.Artifact.size() / 2] ^= 0x20;
        if (!Wire.sendFrame(Up, Error)) {
          std::fprintf(stderr, "pp-collectd: upload failed: %s\n",
                       Error.c_str());
          return 1;
        }
      }
      for (uint64_t U = 0; U != Uploads; ++U) {
        if (!Wire.readFrame(Reply, Error)) {
          std::fprintf(stderr, "pp-collectd: upload verdict lost: %s\n",
                       Error.c_str());
          return 1;
        }
        if (Reply.Type == collectd::FrameType::Ack)
          ++Accepted;
        else
          ++RejectedBy[static_cast<size_t>(Reply.Reason)];
      }

      // The last client carries the window queries.
      if (Client + 1 == Clients && (TopPaths || TopProcs || CctStats)) {
        for (uint64_t Id = 0; Id != Windows; ++Id) {
          struct Ask {
            bool On;
            collectd::QueryKind Kind;
            uint64_t Limit;
          } Asks[] = {
              {TopPaths != 0, collectd::QueryKind::TopPaths, TopPaths},
              {TopProcs != 0, collectd::QueryKind::TopProcs, TopProcs},
              {CctStats, collectd::QueryKind::CctStats, 0},
          };
          for (const Ask &A : Asks) {
            if (!A.On)
              continue;
            collectd::Frame Query;
            Query.Type = collectd::FrameType::Query;
            Query.Kind = A.Kind;
            Query.Window = Id;
            Query.Limit = A.Limit;
            if (!Wire.sendFrame(Query, Error) ||
                !Wire.readFrame(Reply, Error)) {
              std::fprintf(stderr, "pp-collectd: query failed: %s\n",
                           Error.c_str());
              return 1;
            }
            if (Reply.Type == collectd::FrameType::Ack)
              std::printf("-- window %llu --\n%s",
                          static_cast<unsigned long long>(Id),
                          Reply.Text.c_str());
          }
        }
      }
      Wire.disconnect();
    }

    TableWriter Table;
    Table.setHeader({"Wire client", "Count"});
    Table.addRow({"uploads", std::to_string(Clients * Uploads)});
    Table.addRow({"accepted", std::to_string(Accepted)});
    for (unsigned R = 1;
         R != static_cast<unsigned>(collectd::RejectReason::NumReasons); ++R)
      Table.addRow({formatString("rejected %s",
                                 collectd::rejectReasonName(
                                     collectd::RejectReason(R))),
                    std::to_string(RejectedBy[R])});
    std::printf("%s", Table.render().c_str());
    return 0;
  }

  // ---- serve mode: the socket front end owns the service ----
  if (ServeSet) {
    // The event loop ingests synchronously; queue workers would only idle.
    Config.Threads = 0;
    collectd::IngestService Service(Config);
    collectd::ServerConfig ServerCfg;
    ServerCfg.Port = static_cast<uint16_t>(ServePort);
    ServerCfg.IdleTimeoutMs = IdleTimeoutMs;
    collectd::Server Server(ServerCfg, Service);
    std::string Error;
    if (!Server.start(Error)) {
      std::fprintf(stderr, "pp-collectd: %s\n", Error.c_str());
      return 1;
    }
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
    std::printf("pp-collectd: listening on %s:%u\n",
                ServerCfg.BindAddress.c_str(), unsigned(Server.port()));
    std::fflush(stdout);
    while (!StopRequested) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (ExpectUploads) {
        collectd::ServerStats S = Server.stats();
        if (S.Uploads >= ExpectUploads && S.OpenConnections == 0)
          break;
      }
    }
    Server.stop();

    if (!Config.StoreDir.empty()) {
      if (!Service.persist(Error)) {
        std::fprintf(stderr, "pp-collectd: persist failed: %s\n",
                     Error.c_str());
        return 1;
      }
      std::printf("persisted %zu window(s) under %s\n",
                  Service.windows().size(), Config.StoreDir.c_str());
    }
    printServerStats(Server.stats());
    printStats(Service);
    return 0;
  }

  collectd::IngestService Service(Config);

  if (!IngestDir.empty()) {
    std::vector<std::string> Files = profdb::listArtifactFiles(IngestDir);
    if (Files.empty()) {
      std::fprintf(stderr, "pp-collectd: no .ppa artifacts in '%s'\n",
                   IngestDir.c_str());
      return 1;
    }
    for (const std::string &Path : Files) {
      std::vector<uint8_t> Bytes;
      if (!profdb::readFile(Path, Bytes)) {
        std::fprintf(stderr, "pp-collectd: skipping %s: unreadable\n",
                     Path.c_str());
        continue;
      }
      Service.submit({Path, Window, std::move(Bytes)});
    }
  } else {
    std::vector<std::string> Workloads = splitList(WorkloadList);
    if (Workloads.empty() || Clients == 0 || Uploads == 0) {
      std::fprintf(stderr,
                   "pp-collectd: nothing to simulate (check --clients, "
                   "--uploads, --workloads)\n");
      return 1;
    }
    std::vector<std::vector<uint8_t>> Pool;
    if (!buildUploadPool(Workloads, Clients, Uploads, Pool))
      return 1;
    for (uint64_t Client = 0; Client != Clients; ++Client)
      for (uint64_t U = 0; U != Uploads; ++U) {
        uint64_t Index = Client * Uploads + U;
        std::vector<uint8_t> Bytes = Pool[Index];
        if (CorruptEvery && (Index + 1) % CorruptEvery == 0 &&
            Bytes.size() > 16)
          Bytes[Bytes.size() / 2] ^= 0x20;
        Service.submit({formatString("c%llu",
                                     static_cast<unsigned long long>(Client)),
                        Client % Windows, std::move(Bytes)});
      }
  }

  Service.drain();

  for (uint64_t Id : Service.windows()) {
    std::string Error;
    if (TopPaths) {
      std::string Out = Service.queryTopPaths(Id, TopPaths, Error);
      if (Out.empty() && !Error.empty()) {
        std::fprintf(stderr, "pp-collectd: %s\n", Error.c_str());
        return 1;
      }
      std::printf("-- window %llu --\n%s",
                  static_cast<unsigned long long>(Id), Out.c_str());
    }
    if (TopProcs) {
      std::string Out = Service.queryTopProcs(Id, TopProcs, Error);
      if (Out.empty() && !Error.empty()) {
        std::fprintf(stderr, "pp-collectd: %s\n", Error.c_str());
        return 1;
      }
      std::printf("-- window %llu --\n%s",
                  static_cast<unsigned long long>(Id), Out.c_str());
    }
    if (CctStats) {
      std::string Out = Service.queryCctStats(Id, Error);
      if (Out.empty() && !Error.empty()) {
        std::fprintf(stderr, "pp-collectd: %s\n", Error.c_str());
        return 1;
      }
      std::printf("-- window %llu --\n%s",
                  static_cast<unsigned long long>(Id), Out.c_str());
    }
  }

  if (!Config.StoreDir.empty()) {
    std::string Error;
    if (!Service.persist(Error)) {
      std::fprintf(stderr, "pp-collectd: persist failed: %s\n",
                   Error.c_str());
      return 1;
    }
    std::printf("persisted %zu window(s) under %s\n",
                Service.windows().size(), Config.StoreDir.c_str());
  }

  printStats(Service);
  return 0;
}
