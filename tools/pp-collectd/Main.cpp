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
// Every mode ingests its uploads one at a time, in order, on one thread, so
// each verdict follows the upload order; accepted uploads fold into
// per-window incremental folds, and the folded windows answer the same
// queries pp-report does (top-paths / top-procs / cct-stats) — plus an
// ingest stats table with every typed rejection reason.
//
//===----------------------------------------------------------------------===//

#include "collectd/Client.h"
#include "collectd/Ingest.h"
#include "collectd/Server.h"
#include "collectd/Wire.h"
#include "driver/Driver.h"
#include "profdb/Artifact.h"
#include "profdb/Store.h"
#include "support/Format.h"
#include "support/TableWriter.h"

#include <algorithm>
#include <arpa/inet.h>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <tuple>
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

/// The simulated fleet's uploads, in client-major order: each workload of
/// \p WorkloadList runs once in Flow-and-HW (path queries) and once in
/// Context-and-Flow-and-HW (CCT queries), then each client's uploads are
/// those runs' artifacts under per-upload fingerprints — exactly what
/// distinct fleet machines reporting the same binary would send. Client
/// c uploads as tenant "c<c>" into window c % \p Windows; with
/// \p CorruptEvery, every nth upload has one byte flipped, as if in
/// flight.
bool buildUploadPool(const std::string &WorkloadList, uint64_t Clients,
                     uint64_t UploadsPerClient, uint64_t Windows,
                     uint64_t CorruptEvery,
                     std::vector<collectd::Upload> &Pool) {
  std::vector<std::string> Workloads = splitList(WorkloadList);
  if (Workloads.empty()) {
    std::fprintf(stderr, "pp-collectd: --workloads names no workload\n");
    return false;
  }
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
    uint64_t Client = Index / UploadsPerClient;
    collectd::Upload U{
        formatString("c%llu", static_cast<unsigned long long>(Client)),
        Client % Windows,
        profdb::encodeRunArtifact(
            *S.Run,
            formatString("sim;%s;upload%llu", S.Key.Workload.c_str(),
                         static_cast<unsigned long long>(Index)),
            S.Key.Workload, S.Key.Scale, S.Key.Schema)};
    if (CorruptEvery && (Index + 1) % CorruptEvery == 0 && U.Bytes.size() > 16)
      U.Bytes[U.Bytes.size() / 2] ^= 0x20;
    Pool.push_back(std::move(U));
  }
  return true;
}

/// The QUERY frames the --top-paths, --top-procs and --cct-stats flags
/// ask for, in print order; the window is filled in per window.
std::vector<collectd::Frame> askedQueries(uint64_t TopPaths,
                                          uint64_t TopProcs, bool CctStats) {
  std::vector<collectd::Frame> Queries;
  for (auto [Asked, Kind, Limit] :
       {std::tuple(TopPaths != 0, collectd::QueryKind::TopPaths, TopPaths),
        std::tuple(TopProcs != 0, collectd::QueryKind::TopProcs, TopProcs),
        std::tuple(CctStats, collectd::QueryKind::CctStats, uint64_t(0))}) {
    if (!Asked)
      continue;
    collectd::Frame &Query = Queries.emplace_back();
    Query.Type = collectd::FrameType::Query;
    Query.Kind = Kind;
    Query.Limit = Limit;
  }
  return Queries;
}

/// Prints the answer to every query in \p Queries for each window of
/// \p Ids under a "-- window N --" line. \p Answer (Frame, Text, Error)
/// returns false on a failure that ends the run; an empty Text (a window
/// the collector does not hold) prints nothing.
template <typename AnswerFn>
bool printAnswers(const std::vector<uint64_t> &Ids,
                  std::vector<collectd::Frame> Queries, AnswerFn Answer) {
  for (uint64_t Id : Ids)
    for (collectd::Frame &Query : Queries) {
      Query.Window = Id;
      std::string Text, Error;
      if (!Answer(Query, Text, Error)) {
        std::fprintf(stderr, "pp-collectd: %s\n", Error.c_str());
        return false;
      }
      if (!Text.empty())
        std::printf("-- window %llu --\n%s",
                    static_cast<unsigned long long>(Id), Text.c_str());
    }
  return true;
}

using CountRows = std::vector<std::pair<std::string, uint64_t>>;

/// Prints a two-column count table headed \p Title.
void printCounts(const char *Title, const CountRows &Rows) {
  TableWriter Table;
  Table.setHeader({Title, "Count"});
  for (const auto &[Name, Count] : Rows)
    Table.addRow({Name, std::to_string(Count)});
  std::printf("%s", Table.render().c_str());
}

/// Appends one row per typed rejection reason, named \p Prefix + reason.
void addReasonRows(CountRows &Rows, const char *Prefix,
                   const uint64_t *RejectedBy) {
  for (unsigned R = 1;
       R != static_cast<unsigned>(collectd::RejectReason::NumReasons); ++R)
    Rows.push_back({Prefix + std::string(collectd::rejectReasonName(
                                 collectd::RejectReason(R))),
                    RejectedBy[R]});
}

/// Parses "--connect=<host:port>" at flag time: dotted-quad host, port in
/// 1..65535. Every failure is a typed parse error, not a connect-time
/// surprise.
bool parseEndpoint(const char *Text, std::string &Host, uint16_t &Port) {
  const char *Colon = std::strrchr(Text, ':');
  if (!Colon || Colon == Text) {
    std::fprintf(stderr,
                 "pp-collectd: bad --connect '%s' (want host:port)\n", Text);
    return false;
  }
  Host.assign(Text, Colon);
  in_addr Probe;
  if (inet_pton(AF_INET, Host.c_str(), &Probe) != 1) {
    std::fprintf(stderr,
                 "pp-collectd: bad --connect host '%s' (want a dotted-quad "
                 "address)\n",
                 Host.c_str());
    return false;
  }
  uint64_t Value;
  if (!parseFlagUint64("pp-collectd", "--connect port", Colon + 1, 1, 65535,
                       Value))
    return false;
  Port = static_cast<uint16_t>(Value);
  return true;
}

/// The end of every collector run: persists the folded windows when
/// \p StoreDir names a store, then prints the serve counts (when
/// \p Served) and the ingest counts. Returns the exit status.
int finishRun(collectd::IngestService &Service, const std::string &StoreDir,
              const collectd::ServerStats *Served) {
  if (!StoreDir.empty()) {
    std::string Error;
    if (!Service.persist(Error)) {
      std::fprintf(stderr, "pp-collectd: persist failed: %s\n",
                   Error.c_str());
      return 1;
    }
    std::printf("persisted %zu window(s) under %s\n",
                Service.windows().size(), StoreDir.c_str());
  }
  if (Served)
    printCounts("Serve", {{"connections", Served->ConnectionsAccepted},
                          {"frames in", Served->FramesIn},
                          {"frames out", Served->FramesOut},
                          {"bytes in", Served->BytesIn},
                          {"bytes out", Served->BytesOut},
                          {"uploads", Served->Uploads},
                          {"queries", Served->Queries},
                          {"protocol errors", Served->ProtocolErrors},
                          {"idle closed", Served->IdleClosed},
                          {"read pauses", Served->ReadPauses}});
  collectd::IngestStats Stats = Service.stats();
  CountRows Rows = {{"submitted", Stats.Submitted},
                    {"accepted", Stats.Accepted},
                    {"rejected", Stats.Rejected}};
  addReasonRows(Rows, "  ", Stats.RejectedBy);
  Rows.insert(Rows.end(), {{"windows", Stats.Windows},
                           {"queries", Stats.Queries},
                           {"windows expired", Stats.WindowsExpired}});
  printCounts("Ingest", Rows);
  return 0;
}

volatile std::sig_atomic_t StopRequested = 0;

void onStopSignal(int) { StopRequested = 1; }

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Clients = 8, Uploads = 2, Windows = 2, Window = 0;
  uint64_t CorruptEvery = 0, TopPaths = 0, TopProcs = 0;
  uint64_t ServePort = 0, ExpectUploads = 0, IdleTimeoutMs = 30000;
  uint64_t Quota = 0, Rate = 0, Burst = 0, Retain = 0;
  bool CctStats = false, ClientsSet = false, ServeSet = false;
  std::string ConnectHost;
  uint16_t ConnectPort = 0;
  std::string IngestDir, StoreDir, WorkloadList = "130.li,129.compress";

  // Every numeric flag, the value it sets and the range it accepts.
  const struct {
    const char *Flag;
    uint64_t *Out;
    uint64_t Min, Max;
  } Numeric[] = {
      {"--clients", &Clients, 1, UINT64_MAX},
      {"--uploads", &Uploads, 1, UINT64_MAX},
      {"--corrupt-every", &CorruptEvery, 1, UINT64_MAX},
      {"--window", &Window, 0, UINT64_MAX},
      {"--windows", &Windows, 1, UINT64_MAX},
      {"--quota", &Quota, 0, UINT64_MAX},
      {"--rate", &Rate, 0, UINT64_MAX},
      {"--burst", &Burst, 0, UINT64_MAX},
      {"--retain", &Retain, 0, UINT64_MAX},
      {"--serve", &ServePort, 0, 65535},
      {"--expect-uploads", &ExpectUploads, 0, UINT64_MAX},
      {"--idle-timeout-ms", &IdleTimeoutMs, 0, UINT64_MAX},
      {"--top-paths", &TopPaths, 0, UINT64_MAX},
      {"--top-procs", &TopProcs, 0, UINT64_MAX},
  };

  for (int Index = 1; Index != Argc; ++Index) {
    std::string Arg = Argv[Index];
    size_t Eq = Arg.find('=');
    std::string Name = Arg.substr(0, Eq);
    const char *V = Eq == std::string::npos ? nullptr : Argv[Index] + Eq + 1;
    auto Flag = std::find_if(std::begin(Numeric), std::end(Numeric),
                             [&Name](const auto &F) { return Name == F.Flag; });
    if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    } else if (V && Flag != std::end(Numeric)) {
      if (!parseFlagUint64("pp-collectd", Flag->Flag, V, Flag->Min,
                           Flag->Max, *Flag->Out))
        return 1;
      ClientsSet |= Name == "--clients";
      ServeSet |= Name == "--serve";
    } else if (V && Name == "--ingest") {
      IngestDir = V;
    } else if (V && Name == "--workloads") {
      WorkloadList = V;
    } else if (V && Name == "--store") {
      StoreDir = V;
    } else if (V && Name == "--connect") {
      if (!parseEndpoint(V, ConnectHost, ConnectPort))
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
  if (Retain && StoreDir.empty()) {
    std::fprintf(stderr, "pp-collectd: --retain needs --store: a window is "
                         "dropped only once it is persisted\n");
    return 1;
  }

  collectd::IngestConfig Config;
  Config.TenantWindowQuota = Quota;
  Config.TenantRatePerSec = static_cast<double>(Rate);
  Config.TenantRateBurst = static_cast<double>(Burst);
  Config.RetainWindows = Retain;
  Config.StoreDir = StoreDir;
  std::vector<collectd::Frame> Queries =
      askedQueries(TopPaths, TopProcs, CctStats);

  // The simulated fleet feeds --connect and the default mode alike.
  std::vector<collectd::Upload> Pool;
  if (IngestDir.empty() && !ServeSet &&
      !buildUploadPool(WorkloadList, Clients, Uploads, Windows, CorruptEvery,
                       Pool))
    return 1;

  // ---- client mode: upload the simulated fleet over the wire ----
  if (!ConnectHost.empty()) {
    uint64_t Accepted = 0;
    uint64_t RejectedBy[static_cast<size_t>(
        collectd::RejectReason::NumReasons)] = {};
    for (uint64_t Client = 0; Client != Clients; ++Client) {
      // Pipeline the whole session, then read the HELLO's ACK and each
      // upload's verdict in order.
      collectd::Client Wire;
      collectd::Frame Reply;
      if (!Wire.connect(ConnectHost, ConnectPort) ||
          !Wire.sendBytes(collectd::encodeSession(
              Pool[Client * Uploads].Tenant, Config.Acquisition,
              std::span(Pool).subspan(Client * Uploads, Uploads))) ||
          Wire.receive(Reply) != collectd::WireStatus::Ok) {
        std::fprintf(stderr, "pp-collectd: %s\n", Wire.error().c_str());
        return 1;
      }
      if (Reply.Type != collectd::FrameType::Ack) {
        std::fprintf(stderr, "pp-collectd: hello rejected: %s\n",
                     Reply.Message.c_str());
        return 1;
      }
      for (uint64_t U = 0; U != Uploads; ++U) {
        if (Wire.receive(Reply) != collectd::WireStatus::Ok) {
          std::fprintf(stderr, "pp-collectd: upload verdict lost: %s\n",
                       Wire.error().c_str());
          return 1;
        }
        if (Reply.Type == collectd::FrameType::Ack)
          ++Accepted;
        else
          ++RejectedBy[static_cast<size_t>(Reply.Reason)];
      }

      // The last client asks every window the fleet uploaded into.
      if (Client + 1 == Clients && !Queries.empty()) {
        std::vector<uint64_t> Ids(Windows);
        std::iota(Ids.begin(), Ids.end(), 0);
        auto Answer = [&Wire, &Reply](const collectd::Frame &Query,
                                      std::string &Text, std::string &Error) {
          if (!Wire.send(Query) ||
              Wire.receive(Reply) != collectd::WireStatus::Ok) {
            Error = "query failed: " + Wire.error();
            return false;
          }
          if (Reply.Type == collectd::FrameType::Ack)
            Text = std::move(Reply.Text);
          return true;
        };
        if (!printAnswers(Ids, Queries, Answer))
          return 1;
      }
    }

    CountRows Rows = {{"uploads", Clients * Uploads}, {"accepted", Accepted}};
    addReasonRows(Rows, "rejected ", RejectedBy);
    printCounts("Wire client", Rows);
    return 0;
  }

  // ---- serve mode: the socket front end owns the service ----
  if (ServeSet) {
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
    collectd::ServerStats Served = Server.stats();
    return finishRun(Service, StoreDir, &Served);
  }

  // ---- in-process modes: a directory batch or a simulated fleet ----
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
      Service.ingestNow({Path, Window, std::move(Bytes)});
    }
  }
  for (collectd::Upload &U : Pool)
    Service.ingestNow(std::move(U));

  auto Answer = [&Service](const collectd::Frame &Query, std::string &Text,
                           std::string &Error) {
    if (Query.Kind == collectd::QueryKind::TopPaths)
      Text = Service.queryTopPaths(Query.Window, Query.Limit, Error);
    else if (Query.Kind == collectd::QueryKind::TopProcs)
      Text = Service.queryTopProcs(Query.Window, Query.Limit, Error);
    else
      Text = Service.queryCctStats(Query.Window, Error);
    return Error.empty();
  };
  if (!printAnswers(Service.windows(), Queries, Answer))
    return 1;
  return finishRun(Service, StoreDir, nullptr);
}
