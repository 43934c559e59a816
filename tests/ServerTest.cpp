//===- tests/ServerTest.cpp - epoll socket front end -----------------------------===//
//
// The socket front end's contract: artifacts uploaded by real client
// *processes* over loopback TCP land byte-identical to the same uploads
// fed straight into an IngestService — including when the FaultInjector
// read seam corrupts some in flight; every protocol violation (no hello,
// bad magic, wrong version, giant frames) is a typed REJECT then a
// close; per-request failures (corrupt artifact, absent window) reject
// typed and leave the connection usable; idle connections are closed;
// write backpressure pauses reading instead of buffering without bound;
// the per-tenant token bucket refuses over the wire exactly as it does
// in process.
//
//===----------------------------------------------------------------------===//

#include "cct/CallingContextTree.h"
#include "collectd/Ingest.h"
#include "collectd/Server.h"
#include "collectd/Wire.h"
#include "driver/Driver.h"
#include "driver/FaultInjector.h"
#include "profdb/Store.h"
#include "workloads/Spec.h"

#include "gtest/gtest.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pp;
using namespace pp::collectd;

namespace {

std::string makeTempDir() {
  char Template[] = "/tmp/pp-server-test-XXXXXX";
  const char *Dir = mkdtemp(Template);
  EXPECT_NE(Dir, nullptr);
  return Dir ? Dir : "";
}

void removeDir(const std::string &Dir) {
  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

struct InjectorGuard {
  ~InjectorGuard() { driver::FaultInjector::instance().configure({}); }
};

/// One encoded 130.li artifact per fingerprint (run executed once,
/// re-stamped per upload) — the same corpus CollectdTest uses.
std::vector<uint8_t> encodedArtifact(const std::string &Fingerprint) {
  static driver::OutcomePtr Run;
  static std::unique_ptr<ir::Module> Module;
  static prof::ProfileConfig Config;
  if (!Run) {
    driver::Driver D(/*DiskDir=*/"", /*Threads=*/0);
    driver::RunPlan Plan;
    Plan.Workload = "130.li";
    Plan.Options.Config.M = prof::Mode::ContextFlowHw;
    Run = D.run(Plan);
    EXPECT_TRUE(Run && Run->Result.Ok);
    Module = workloads::buildWorkload("130.li", 1);
    Config = Plan.Options.Config;
  }
  profdb::Artifact A = profdb::artifactFromOutcome(*Run, *Module, Fingerprint,
                                                   "130.li", 1, Config);
  return profdb::encodeArtifact(A);
}

/// A blocking loopback client for the framed protocol, with a receive
/// timeout so a server bug fails the test instead of hanging it.
class TestClient {
public:
  ~TestClient() { disconnect(); }

  bool connectTo(uint16_t Port, int RcvBufBytes = 0) {
    Fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0)
      return false;
    if (RcvBufBytes)
      setsockopt(Fd, SOL_SOCKET, SO_RCVBUF, &RcvBufBytes,
                 sizeof(RcvBufBytes));
    timeval Timeout{30, 0};
    setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    return connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                   sizeof(Addr)) == 0;
  }

  bool sendBytes(const std::vector<uint8_t> &Bytes) {
    size_t Sent = 0;
    while (Sent != Bytes.size()) {
      ssize_t Got = send(Fd, Bytes.data() + Sent, Bytes.size() - Sent,
                         MSG_NOSIGNAL);
      if (Got < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Sent += static_cast<size_t>(Got);
    }
    return true;
  }

  bool sendFrame(const Frame &F) { return sendBytes(encodeFrame(F)); }

  /// Ok = frame read; NeedMore here means the peer closed (EOF).
  WireStatus readFrame(Frame &Out) {
    for (;;) {
      WireStatus Status = Decoder.next(Out);
      if (Status != WireStatus::NeedMore)
        return Status;
      uint8_t Chunk[64 * 1024];
      ssize_t Got = recv(Fd, Chunk, sizeof(Chunk), 0);
      if (Got < 0 && errno == EINTR)
        continue;
      if (Got <= 0)
        return WireStatus::NeedMore; // EOF or timeout
      Decoder.feed(Chunk, static_cast<size_t>(Got));
    }
  }

  /// True when the peer has closed: the next read yields EOF.
  bool readEof() {
    uint8_t Byte;
    for (;;) {
      ssize_t Got = recv(Fd, &Byte, 1, 0);
      if (Got < 0 && errno == EINTR)
        continue;
      return Got == 0;
    }
  }

  bool hello(const std::string &Tenant) {
    Frame F;
    F.Type = FrameType::Hello;
    F.Tenant = Tenant;
    F.Acquisition = "exact";
    if (!sendFrame(F))
      return false;
    Frame Reply;
    return readFrame(Reply) == WireStatus::Ok &&
           Reply.Type == FrameType::Ack;
  }

  void disconnect() {
    if (Fd >= 0)
      close(Fd);
    Fd = -1;
  }

private:
  int Fd = -1;
  FrameDecoder Decoder;
};

/// Runs \p Stream against the server from a forked child process: the
/// child connects, writes the pre-serialised bytes, half-closes, drains
/// replies to EOF, and exits. Everything the child touches is allocated
/// before the fork — the parent is threaded, so the child must not
/// malloc.
pid_t spawnSender(uint16_t Port, const std::vector<uint8_t> &Stream) {
  pid_t Pid = fork();
  if (Pid != 0)
    return Pid;

  int Fd = socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    _exit(10);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
    _exit(11);
  size_t Sent = 0;
  while (Sent != Stream.size()) {
    ssize_t Got =
        send(Fd, Stream.data() + Sent, Stream.size() - Sent, MSG_NOSIGNAL);
    if (Got < 0) {
      if (errno == EINTR)
        continue;
      _exit(12);
    }
    Sent += static_cast<size_t>(Got);
  }
  shutdown(Fd, SHUT_WR);
  uint8_t Sink[4096];
  for (;;) {
    ssize_t Got = recv(Fd, Sink, sizeof(Sink), 0);
    if (Got < 0 && errno == EINTR)
      continue;
    if (Got <= 0)
      break;
  }
  _exit(0);
}

int waitFor(pid_t Pid) {
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
    ;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// A client session as bytes: hello + every upload, framed.
std::vector<uint8_t> sessionStream(const std::string &Tenant,
                                   const std::vector<Upload> &Uploads) {
  Frame Hello;
  Hello.Type = FrameType::Hello;
  Hello.Tenant = Tenant;
  Hello.Acquisition = "exact";
  std::vector<uint8_t> Stream = encodeFrame(Hello);
  uint64_t Serial = 0;
  for (const Upload &U : Uploads) {
    Frame Up;
    Up.Type = FrameType::Upload;
    Up.Serial = Serial++;
    Up.Window = U.Window;
    Up.Artifact = U.Bytes;
    std::vector<uint8_t> Bytes = encodeFrame(Up);
    Stream.insert(Stream.end(), Bytes.begin(), Bytes.end());
  }
  return Stream;
}

/// Every persisted artifact under \p StoreDir, keyed by
/// "w<window>/<file>" — the byte-identity view the loopback tests diff.
std::map<std::string, std::vector<uint8_t>>
persistedTree(const std::string &StoreDir,
              const std::vector<uint64_t> &WindowIds) {
  std::map<std::string, std::vector<uint8_t>> Tree;
  for (uint64_t Id : WindowIds) {
    std::string Dir = StoreDir + "/w" + std::to_string(Id);
    for (const std::string &Path : profdb::listArtifactFiles(Dir)) {
      std::ifstream In(Path, std::ios::binary);
      std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                                 std::istreambuf_iterator<char>());
      Tree["w" + std::to_string(Id) + Path.substr(Path.rfind('/'))] =
          std::move(Bytes);
    }
  }
  return Tree;
}

IngestConfig manualConfig() {
  IngestConfig C;
  C.Threads = 0;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Loopback multi-process byte identity — the acceptance criterion
//===----------------------------------------------------------------------===//

TEST(ServerLoopbackTest, ForkedClientsMatchInProcessIngestUnderFaults) {
  InjectorGuard Guard;
  std::string WireDir = makeTempDir();
  std::string RefDir = makeTempDir();

  // Fleet: 4 client processes, 3 uploads each, over 2 windows. Built
  // (and framed) before any fork or server start.
  const unsigned Clients = 4, PerClient = 3;
  std::vector<std::vector<Upload>> Fleet(Clients);
  std::vector<std::vector<uint8_t>> Streams(Clients);
  for (unsigned Client = 0; Client != Clients; ++Client) {
    for (unsigned U = 0; U != PerClient; ++U)
      Fleet[Client].push_back(
          Upload{"c" + std::to_string(Client), Client % 2,
                 encodedArtifact("fleet;c" + std::to_string(Client) + ";u" +
                                 std::to_string(U))});
    Streams[Client] =
        sessionStream("c" + std::to_string(Client), Fleet[Client]);
  }

  // The read seam corrupts every 5th ingest — server-side, after the
  // wire CRC has passed, standing in for corruption between the socket
  // and the store.
  driver::FaultInjector::Config Faults;
  Faults.Seed = 42;
  Faults.FlipEveryNthRead = 5;
  driver::FaultInjector::instance().configure(Faults);

  uint64_t WireRejected;
  {
    IngestConfig Config = manualConfig();
    Config.StoreDir = WireDir;
    IngestService Service(Config);
    Server Front({}, Service);
    std::string Error;
    ASSERT_TRUE(Front.start(Error)) << Error;

    // Sequential client processes: deterministic arrival order, so the
    // injector's every-Nth cadence hits the same uploads as the
    // reference ingest below.
    for (unsigned Client = 0; Client != Clients; ++Client)
      ASSERT_EQ(waitFor(spawnSender(Front.port(), Streams[Client])), 0)
          << "client " << Client;

    ServerStats Stats = Front.stats();
    EXPECT_EQ(Stats.ConnectionsAccepted, Clients);
    EXPECT_EQ(Stats.Uploads, uint64_t(Clients) * PerClient);
    EXPECT_EQ(Stats.ProtocolErrors, 0u);
    Front.stop();

    ASSERT_TRUE(Service.persist(Error)) << Error;
    WireRejected = Service.stats().Rejected;
  }

  // Reference: identical uploads, identical injector schedule, no wire.
  driver::FaultInjector::instance().configure(Faults);
  std::vector<uint64_t> WindowIds;
  {
    IngestConfig Config = manualConfig();
    Config.StoreDir = RefDir;
    IngestService Reference(Config);
    for (unsigned Client = 0; Client != Clients; ++Client)
      for (const Upload &U : Fleet[Client])
        Reference.ingestNow(U);
    std::string Error;
    ASSERT_TRUE(Reference.persist(Error)) << Error;
    EXPECT_EQ(Reference.stats().Rejected, WireRejected);
    EXPECT_GT(WireRejected, 0u); // the seam really fired
    WindowIds = Reference.windows();
  }

  auto WireTree = persistedTree(WireDir, WindowIds);
  auto RefTree = persistedTree(RefDir, WindowIds);
  EXPECT_FALSE(RefTree.empty());
  EXPECT_EQ(WireTree, RefTree);

  removeDir(WireDir);
  removeDir(RefDir);
}

TEST(ServerLoopbackTest, ConcurrentClientProcessesFoldIdentically) {
  // No injector here: with concurrent clients the arrival order is
  // nondeterministic, and the window fold must not care (the profdb::Fold
  // order-independence guarantee, now exercised through real sockets).
  const unsigned Clients = 6, PerClient = 2;
  std::vector<std::vector<Upload>> Fleet(Clients);
  std::vector<std::vector<uint8_t>> Streams(Clients);
  for (unsigned Client = 0; Client != Clients; ++Client) {
    for (unsigned U = 0; U != PerClient; ++U)
      Fleet[Client].push_back(
          Upload{"c" + std::to_string(Client), 0,
                 encodedArtifact("conc;c" + std::to_string(Client) + ";u" +
                                 std::to_string(U))});
    Streams[Client] =
        sessionStream("c" + std::to_string(Client), Fleet[Client]);
  }

  IngestService Service(manualConfig());
  Server Front({}, Service);
  std::string Error;
  ASSERT_TRUE(Front.start(Error)) << Error;

  std::vector<pid_t> Pids;
  for (unsigned Client = 0; Client != Clients; ++Client)
    Pids.push_back(spawnSender(Front.port(), Streams[Client]));
  for (unsigned Client = 0; Client != Clients; ++Client)
    EXPECT_EQ(waitFor(Pids[Client]), 0) << "client " << Client;
  Front.stop();

  IngestService Reference(manualConfig());
  for (unsigned Client = 0; Client != Clients; ++Client)
    for (const Upload &U : Fleet[Client])
      EXPECT_TRUE(Reference.ingestNow(U).Accepted);

  std::vector<std::vector<uint8_t>> WireBytes = Service.windowBytes(0, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  std::vector<std::vector<uint8_t>> RefBytes =
      Reference.windowBytes(0, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(WireBytes, RefBytes);
  EXPECT_EQ(Service.stats().Accepted, uint64_t(Clients) * PerClient);
}

//===----------------------------------------------------------------------===//
// Typed protocol errors
//===----------------------------------------------------------------------===//

TEST(ServerProtocolTest, UploadBeforeHelloIsRefusedAndClosed) {
  IngestService Service(manualConfig());
  Server Front({}, Service);
  std::string Error;
  ASSERT_TRUE(Front.start(Error)) << Error;

  TestClient Client;
  ASSERT_TRUE(Client.connectTo(Front.port()));
  Frame Up;
  Up.Type = FrameType::Upload;
  Up.Serial = 3;
  Up.Window = 0;
  Up.Artifact = {1, 2, 3};
  ASSERT_TRUE(Client.sendFrame(Up));
  Frame Reply;
  ASSERT_EQ(Client.readFrame(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Reject);
  EXPECT_EQ(Reply.Serial, 3u);
  EXPECT_NE(Reply.Message.find("hello"), std::string::npos);
  EXPECT_TRUE(Client.readEof());
  EXPECT_EQ(Service.stats().Submitted, 0u);
}

TEST(ServerProtocolTest, BadMagicIsTypedRejectThenClose) {
  IngestService Service(manualConfig());
  Server Front({}, Service);
  std::string Error;
  ASSERT_TRUE(Front.start(Error)) << Error;

  TestClient Client;
  ASSERT_TRUE(Client.connectTo(Front.port()));
  ASSERT_TRUE(Client.sendBytes({'G', 'E', 'T', ' ', '/', '\r', '\n'}));
  Frame Reply;
  ASSERT_EQ(Client.readFrame(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Reject);
  EXPECT_EQ(Reply.Wire, WireStatus::BadMagic);
  EXPECT_TRUE(Client.readEof());
  EXPECT_GE(Front.stats().ProtocolErrors, 1u);
}

TEST(ServerProtocolTest, BadVersionIsTypedRejectThenClose) {
  IngestService Service(manualConfig());
  Server Front({}, Service);
  std::string Error;
  ASSERT_TRUE(Front.start(Error)) << Error;

  TestClient Client;
  ASSERT_TRUE(Client.connectTo(Front.port()));
  Frame Hello;
  Hello.Type = FrameType::Hello;
  Hello.Tenant = "t";
  Hello.Acquisition = "exact";
  std::vector<uint8_t> Bytes = encodeFrame(Hello);
  Bytes[4] = WireVersion + 9;
  ASSERT_TRUE(Client.sendBytes(Bytes));
  Frame Reply;
  ASSERT_EQ(Client.readFrame(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Reject);
  EXPECT_EQ(Reply.Wire, WireStatus::BadVersion);
  EXPECT_TRUE(Client.readEof());
}

TEST(ServerProtocolTest, OversizedFrameIsTypedRejectThenClose) {
  IngestService Service(manualConfig());
  ServerConfig Cfg;
  Cfg.MaxPayloadBytes = 1024;
  Server Front(Cfg, Service);
  std::string Error;
  ASSERT_TRUE(Front.start(Error)) << Error;

  TestClient Client;
  ASSERT_TRUE(Client.connectTo(Front.port()));
  ASSERT_TRUE(Client.hello("t"));
  Frame Up;
  Up.Type = FrameType::Upload;
  Up.Artifact.assign(4096, 0xaa);
  ASSERT_TRUE(Client.sendFrame(Up));
  Frame Reply;
  ASSERT_EQ(Client.readFrame(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Reject);
  EXPECT_EQ(Reply.Wire, WireStatus::FrameTooLarge);
  EXPECT_TRUE(Client.readEof());
  EXPECT_EQ(Service.stats().Submitted, 0u);
}

TEST(ServerProtocolTest, CorruptUploadRejectsTypedAndSessionSurvives) {
  IngestService Service(manualConfig());
  Server Front({}, Service);
  std::string Error;
  ASSERT_TRUE(Front.start(Error)) << Error;

  TestClient Client;
  ASSERT_TRUE(Client.connectTo(Front.port()));
  ASSERT_TRUE(Client.hello("t"));

  // Corrupt *artifact* inside a well-formed frame: the wire CRC passes,
  // the artifact decoder refuses, the session lives on.
  Frame Bad;
  Bad.Type = FrameType::Upload;
  Bad.Serial = 1;
  Bad.Window = 0;
  Bad.Artifact = encodedArtifact("wire;bad");
  Bad.Artifact[Bad.Artifact.size() / 2] ^= 0x10;
  ASSERT_TRUE(Client.sendFrame(Bad));
  Frame Reply;
  ASSERT_EQ(Client.readFrame(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Reject);
  EXPECT_EQ(Reply.Serial, 1u);
  EXPECT_EQ(Reply.Reason, RejectReason::Corrupt);
  EXPECT_EQ(Reply.Decode, profdb::DecodeStatus::BadChecksum);

  Frame Good;
  Good.Type = FrameType::Upload;
  Good.Serial = 2;
  Good.Window = 0;
  Good.Artifact = encodedArtifact("wire;good");
  ASSERT_TRUE(Client.sendFrame(Good));
  ASSERT_EQ(Client.readFrame(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Ack);
  EXPECT_EQ(Reply.Serial, 2u);
  EXPECT_EQ(Service.stats().Accepted, 1u);
}

TEST(ServerProtocolTest, QueriesAnswerOverTheWire) {
  IngestService Service(manualConfig());
  Server Front({}, Service);
  std::string Error;
  ASSERT_TRUE(Front.start(Error)) << Error;

  TestClient Client;
  ASSERT_TRUE(Client.connectTo(Front.port()));
  ASSERT_TRUE(Client.hello("t"));
  Frame Up;
  Up.Type = FrameType::Upload;
  Up.Serial = 1;
  Up.Window = 4;
  Up.Artifact = encodedArtifact("wire;q");
  ASSERT_TRUE(Client.sendFrame(Up));
  Frame Reply;
  ASSERT_EQ(Client.readFrame(Reply), WireStatus::Ok);
  ASSERT_EQ(Reply.Type, FrameType::Ack);

  // The wire answer is the same text the service renders in process.
  Frame Query;
  Query.Type = FrameType::Query;
  Query.Serial = 2;
  Query.Kind = QueryKind::CctStats;
  Query.Window = 4;
  ASSERT_TRUE(Client.sendFrame(Query));
  ASSERT_EQ(Client.readFrame(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Ack);
  EXPECT_EQ(Reply.Text, Service.queryCctStats(4, Error));
  EXPECT_TRUE(Error.empty());

  // A query for an absent window rejects this request, not the session.
  Query.Serial = 3;
  Query.Window = 99;
  ASSERT_TRUE(Client.sendFrame(Query));
  ASSERT_EQ(Client.readFrame(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Reject);
  EXPECT_EQ(Reply.Serial, 3u);
  Query.Serial = 4;
  Query.Window = 4;
  ASSERT_TRUE(Client.sendFrame(Query));
  ASSERT_EQ(Client.readFrame(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Ack);
}

//===----------------------------------------------------------------------===//
// Resource limits
//===----------------------------------------------------------------------===//

TEST(ServerLimitTest, IdleConnectionsAreSweptAndCounted) {
  IngestService Service(manualConfig());
  ServerConfig Cfg;
  Cfg.IdleTimeoutMs = 100;
  Server Front(Cfg, Service);
  std::string Error;
  ASSERT_TRUE(Front.start(Error)) << Error;

  TestClient Client;
  ASSERT_TRUE(Client.connectTo(Front.port()));
  ASSERT_TRUE(Client.hello("t"));
  // Say nothing; the sweep must close us.
  EXPECT_TRUE(Client.readEof());
  ServerStats Stats = Front.stats();
  EXPECT_GE(Stats.IdleClosed, 1u);
  EXPECT_EQ(Stats.OpenConnections, 0u);
}

TEST(ServerLimitTest, WriteBackpressurePausesReading) {
  IngestService Service(manualConfig());
  ServerConfig Cfg;
  Cfg.WriteBufferLimit = 4096;
  // Shrink the kernel's slack on both ends so replies the client is not
  // reading land in the server's own buffer — the state under test —
  // rather than in socket buffers.
  Cfg.SendBufferBytes = 4096;
  Server Front(Cfg, Service);
  std::string Error;
  ASSERT_TRUE(Front.start(Error)) << Error;

  TestClient Client;
  // A tiny client receive buffer makes the kernel push back on the
  // server quickly once we stop reading.
  ASSERT_TRUE(Client.connectTo(Front.port(), /*RcvBufBytes=*/4096));
  ASSERT_TRUE(Client.hello("t"));
  Frame Up;
  Up.Type = FrameType::Upload;
  Up.Serial = 1;
  Up.Window = 0;
  Up.Artifact = encodedArtifact("wire;bp");
  ASSERT_TRUE(Client.sendFrame(Up));
  Frame Reply;
  ASSERT_EQ(Client.readFrame(Reply), WireStatus::Ok);
  ASSERT_EQ(Reply.Type, FrameType::Ack);

  // Pipeline many queries without reading a single reply: the server
  // must park the replies it cannot write, hit the buffer limit, and
  // pause reading us rather than buffer without bound.
  const unsigned Queries = 512;
  std::vector<uint8_t> Burst;
  for (unsigned Index = 0; Index != Queries; ++Index) {
    Frame Query;
    Query.Type = FrameType::Query;
    Query.Serial = 10 + Index;
    Query.Kind = QueryKind::TopPaths;
    Query.Window = 0;
    Query.Limit = 50;
    std::vector<uint8_t> Bytes = encodeFrame(Query);
    Burst.insert(Burst.end(), Bytes.begin(), Bytes.end());
  }
  ASSERT_TRUE(Client.sendBytes(Burst));

  // Hold off draining until the server has actually parked replies and
  // paused us — otherwise (e.g. under a sanitizer's slowdown) this
  // thread can race ahead and absorb replies as fast as the server
  // renders them, and the buffer under test never fills.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Front.stats().ReadPauses == 0 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Now drain: every reply must still arrive, in order.
  for (unsigned Index = 0; Index != Queries; ++Index) {
    ASSERT_EQ(Client.readFrame(Reply), WireStatus::Ok) << "query " << Index;
    EXPECT_EQ(Reply.Serial, 10u + Index);
    EXPECT_EQ(Reply.Type, FrameType::Ack);
  }
  EXPECT_GE(Front.stats().ReadPauses, 1u);
  EXPECT_EQ(Front.stats().Queries, uint64_t(Queries));
}

TEST(ServerLimitTest, TokenBucketRefusesOverTheWire) {
  // A frozen injected clock: the bucket never refills, so verdicts are
  // exact — burst-many accepts, then rate-limited rejects.
  IngestConfig Config = manualConfig();
  Config.TenantRatePerSec = 1;
  Config.TenantRateBurst = 2;
  Config.RateClockNs = [] { return uint64_t(1000000000); };
  IngestService Service(Config);
  Server Front({}, Service);
  std::string Error;
  ASSERT_TRUE(Front.start(Error)) << Error;

  TestClient Client;
  ASSERT_TRUE(Client.connectTo(Front.port()));
  ASSERT_TRUE(Client.hello("t"));
  unsigned Accepted = 0, RateLimited = 0;
  for (unsigned Index = 0; Index != 5; ++Index) {
    Frame Up;
    Up.Type = FrameType::Upload;
    Up.Serial = Index;
    Up.Window = 0;
    Up.Artifact = encodedArtifact("wire;rate" + std::to_string(Index));
    ASSERT_TRUE(Client.sendFrame(Up));
    Frame Reply;
    ASSERT_EQ(Client.readFrame(Reply), WireStatus::Ok);
    if (Reply.Type == FrameType::Ack) {
      ++Accepted;
    } else {
      EXPECT_EQ(Reply.Reason, RejectReason::RateLimited);
      ++RateLimited;
    }
  }
  EXPECT_EQ(Accepted, 2u);
  EXPECT_EQ(RateLimited, 3u);
  IngestStats Stats = Service.stats();
  EXPECT_EQ(Stats.RejectedBy[static_cast<size_t>(RejectReason::RateLimited)],
            3u);
}
