//===- tests/ServerTest.cpp - epoll socket front end -----------------------------===//
//
// The socket front end's contract: artifacts uploaded by real client
// *processes* over loopback TCP land byte-identical to the same uploads
// fed straight into an IngestService — including when some of them carry
// a corrupt artifact inside a valid frame; every protocol violation (no hello,
// bad magic, wrong version, giant frames) is a typed REJECT then a
// close; per-request failures (corrupt artifact, absent window) reject
// typed and leave the connection usable; idle connections are closed;
// write backpressure pauses reading instead of buffering without bound;
// the per-tenant token bucket refuses over the wire exactly as it does
// in process.
//
//===----------------------------------------------------------------------===//

#include "collectd/Client.h"
#include "collectd/Ingest.h"
#include "collectd/Server.h"
#include "collectd/Wire.h"
#include "driver/Driver.h"
#include "profdb/Artifact.h"
#include "profdb/Store.h"

#include "gtest/gtest.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
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

/// One encoded 130.li artifact per fingerprint (run executed once,
/// re-stamped per upload) — the same corpus CollectdTest uses.
std::vector<uint8_t> encodedArtifact(const std::string &Fingerprint) {
  static driver::OutcomePtr Run;
  static driver::RunKey Key;
  if (!Run) {
    driver::Driver D(/*DiskDir=*/"", /*Threads=*/0);
    driver::RunPlan Plan;
    Plan.Workload = "130.li";
    Plan.Options.Config.M = prof::Mode::ContextFlowHw;
    Run = D.run(Plan);
    EXPECT_TRUE(Run && Run->Result.Ok);
    Key = driver::RunKey::of(Plan);
  }
  return profdb::encodeRunArtifact(*Run, Fingerprint, Key.Workload, Key.Scale,
                                   Key.Schema);
}

/// True when the server has closed \p Conn: the next receive meets a
/// clean EOF, not a frame or a timeout.
bool readEof(Client &Conn) {
  Frame Unexpected;
  return Conn.receive(Unexpected) == WireStatus::NeedMore &&
         Conn.peerClosed();
}

/// Runs \p Stream against the server from a forked child process, which
/// replays it and exits with replay()'s status. Everything the child
/// touches is allocated before the fork — the parent is threaded, so the
/// child must not malloc.
pid_t spawnSender(uint16_t Port, const std::vector<uint8_t> &Stream) {
  pid_t Pid = fork();
  if (Pid == 0)
    _exit(replay("127.0.0.1", Port, Stream.data(), Stream.size()));
  return Pid;
}

int waitFor(pid_t Pid) {
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
    ;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
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
      EXPECT_TRUE(profdb::readFile(
          Path, Tree["w" + std::to_string(Id) + Path.substr(Path.rfind('/'))]));
    }
  }
  return Tree;
}

/// One started Server over its own service and one client connected to
/// it: the setup every protocol and limit case shares.
class ServerSession : public testing::Test {
protected:
  /// Starts the server under \p S over a service under \p I, connects
  /// Conn with \p ReceiveBufferBytes, and HELLOs as tenant "t" when
  /// \p Hello.
  testing::AssertionResult open(bool Hello, ServerConfig S = {},
                                IngestConfig I = {},
                                int ReceiveBufferBytes = 0) {
    Service = std::make_unique<IngestService>(std::move(I));
    Front = std::make_unique<Server>(std::move(S), *Service);
    std::string Error;
    if (!Front->start(Error))
      return testing::AssertionFailure() << Error;
    if (!Conn.connect("127.0.0.1", Front->port(), ReceiveBufferBytes) ||
        (Hello && !Conn.hello("t", "exact")))
      return testing::AssertionFailure() << Conn.error();
    return testing::AssertionSuccess();
  }

  std::unique_ptr<IngestService> Service;
  std::unique_ptr<Server> Front;
  Client Conn;
};
using ServerProtocolTest = ServerSession;
using ServerLimitTest = ServerSession;

} // namespace

//===----------------------------------------------------------------------===//
// Loopback multi-process byte identity — the acceptance criterion
//===----------------------------------------------------------------------===//

TEST(ServerLoopbackTest, ForkedClientsMatchInProcessIngestUnderFaults) {
  std::string WireDir = makeTempDir();
  std::string RefDir = makeTempDir();

  // Fleet: 4 client processes, 3 uploads each, over 2 windows. Built
  // (and framed) before any fork or server start. Every 5th upload has
  // one artifact byte flipped before framing: the frame CRC covers the
  // corrupt bytes and passes, so only the artifact's own CRC can catch
  // it, on the wire side and the reference side alike.
  const unsigned Clients = 4, PerClient = 3;
  std::vector<std::vector<Upload>> Fleet(Clients);
  std::vector<std::vector<uint8_t>> Streams(Clients);
  uint64_t Corrupted = 0;
  for (unsigned Client = 0; Client != Clients; ++Client) {
    for (unsigned U = 0; U != PerClient; ++U) {
      Upload Up{"c" + std::to_string(Client), Client % 2,
                encodedArtifact("fleet;c" + std::to_string(Client) + ";u" +
                                std::to_string(U))};
      if ((Client * PerClient + U + 1) % 5 == 0) {
        Up.Bytes[Up.Bytes.size() / 2] ^= 0x10;
        ++Corrupted;
      }
      Fleet[Client].push_back(std::move(Up));
    }
    Streams[Client] =
        encodeSession("c" + std::to_string(Client), "exact", Fleet[Client]);
  }

  uint64_t WireRejected;
  {
    IngestConfig Config;
    Config.StoreDir = WireDir;
    IngestService Service(Config);
    Server Front({}, Service);
    std::string Error;
    ASSERT_TRUE(Front.start(Error)) << Error;

    // Sequential client processes: the same arrival order as the
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

  // Reference: identical uploads, no wire.
  std::vector<uint64_t> WindowIds;
  {
    IngestConfig Config;
    Config.StoreDir = RefDir;
    IngestService Reference(Config);
    for (unsigned Client = 0; Client != Clients; ++Client)
      for (const Upload &U : Fleet[Client])
        Reference.ingestNow(U);
    std::string Error;
    ASSERT_TRUE(Reference.persist(Error)) << Error;
    EXPECT_EQ(Reference.stats().Rejected, WireRejected);
    EXPECT_EQ(WireRejected, Corrupted);
    EXPECT_GT(Corrupted, 0u);
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
  // Concurrent clients: the arrival order is nondeterministic, and the
  // window fold must not care (the profdb::Fold order-independence
  // guarantee, now exercised through real sockets).
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
        encodeSession("c" + std::to_string(Client), "exact", Fleet[Client]);
  }

  IngestService Service(IngestConfig{});
  Server Front({}, Service);
  std::string Error;
  ASSERT_TRUE(Front.start(Error)) << Error;

  std::vector<pid_t> Pids;
  for (unsigned Client = 0; Client != Clients; ++Client)
    Pids.push_back(spawnSender(Front.port(), Streams[Client]));
  for (unsigned Client = 0; Client != Clients; ++Client)
    EXPECT_EQ(waitFor(Pids[Client]), 0) << "client " << Client;
  Front.stop();

  IngestService Reference(IngestConfig{});
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

TEST_F(ServerProtocolTest, UploadBeforeHelloIsRefusedAndClosed) {
  ASSERT_TRUE(open(/*Hello=*/false));
  Frame Up;
  Up.Type = FrameType::Upload;
  Up.Serial = 3;
  Up.Window = 0;
  Up.Artifact = {1, 2, 3};
  ASSERT_TRUE(Conn.send(Up));
  Frame Reply;
  ASSERT_EQ(Conn.receive(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Reject);
  EXPECT_EQ(Reply.Serial, 3u);
  EXPECT_NE(Reply.Message.find("hello"), std::string::npos);
  EXPECT_TRUE(readEof(Conn));
  EXPECT_EQ(Service->stats().Submitted, 0u);
}

TEST_F(ServerProtocolTest, BadMagicIsTypedRejectThenClose) {
  ASSERT_TRUE(open(/*Hello=*/false));
  ASSERT_TRUE(Conn.sendBytes({'G', 'E', 'T', ' ', '/', '\r', '\n'}));
  Frame Reply;
  ASSERT_EQ(Conn.receive(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Reject);
  EXPECT_EQ(Reply.Wire, WireStatus::BadMagic);
  EXPECT_TRUE(readEof(Conn));
  EXPECT_GE(Front->stats().ProtocolErrors, 1u);
}

TEST_F(ServerProtocolTest, BadVersionIsTypedRejectThenClose) {
  ASSERT_TRUE(open(/*Hello=*/false));
  Frame Hello;
  Hello.Type = FrameType::Hello;
  Hello.Tenant = "t";
  Hello.Acquisition = "exact";
  std::vector<uint8_t> Bytes = encodeFrame(Hello);
  Bytes[4] = WireVersion + 9;
  ASSERT_TRUE(Conn.sendBytes(Bytes));
  Frame Reply;
  ASSERT_EQ(Conn.receive(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Reject);
  EXPECT_EQ(Reply.Wire, WireStatus::BadVersion);
  EXPECT_TRUE(readEof(Conn));
}

TEST_F(ServerProtocolTest, OversizedFrameIsTypedRejectThenClose) {
  ServerConfig Cfg;
  Cfg.MaxPayloadBytes = 1024;
  ASSERT_TRUE(open(/*Hello=*/true, Cfg));
  Frame Up;
  Up.Type = FrameType::Upload;
  Up.Artifact.assign(4096, 0xaa);
  ASSERT_TRUE(Conn.send(Up));
  Frame Reply;
  ASSERT_EQ(Conn.receive(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Reject);
  EXPECT_EQ(Reply.Wire, WireStatus::FrameTooLarge);
  EXPECT_TRUE(readEof(Conn));
  EXPECT_EQ(Service->stats().Submitted, 0u);
}

TEST_F(ServerProtocolTest, CorruptUploadRejectsTypedAndSessionSurvives) {
  ASSERT_TRUE(open(/*Hello=*/true));

  // Corrupt *artifact* inside a well-formed frame: the wire CRC passes,
  // the artifact decoder refuses, the session lives on.
  Frame Bad;
  Bad.Type = FrameType::Upload;
  Bad.Serial = 1;
  Bad.Window = 0;
  Bad.Artifact = encodedArtifact("wire;bad");
  Bad.Artifact[Bad.Artifact.size() / 2] ^= 0x10;
  ASSERT_TRUE(Conn.send(Bad));
  Frame Reply;
  ASSERT_EQ(Conn.receive(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Reject);
  EXPECT_EQ(Reply.Serial, 1u);
  EXPECT_EQ(Reply.Reason, RejectReason::Corrupt);
  EXPECT_EQ(Reply.Decode, profdb::DecodeStatus::BadChecksum);

  Frame Good;
  Good.Type = FrameType::Upload;
  Good.Serial = 2;
  Good.Window = 0;
  Good.Artifact = encodedArtifact("wire;good");
  ASSERT_TRUE(Conn.send(Good));
  ASSERT_EQ(Conn.receive(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Ack);
  EXPECT_EQ(Reply.Serial, 2u);
  EXPECT_EQ(Service->stats().Accepted, 1u);
}

TEST_F(ServerProtocolTest, QueriesAnswerOverTheWire) {
  ASSERT_TRUE(open(/*Hello=*/true));
  Frame Up;
  Up.Type = FrameType::Upload;
  Up.Serial = 1;
  Up.Window = 4;
  Up.Artifact = encodedArtifact("wire;q");
  ASSERT_TRUE(Conn.send(Up));
  Frame Reply;
  ASSERT_EQ(Conn.receive(Reply), WireStatus::Ok);
  ASSERT_EQ(Reply.Type, FrameType::Ack);

  // The wire answer is the same text the service renders in process.
  Frame Query;
  Query.Type = FrameType::Query;
  Query.Serial = 2;
  Query.Kind = QueryKind::CctStats;
  Query.Window = 4;
  ASSERT_TRUE(Conn.send(Query));
  ASSERT_EQ(Conn.receive(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Ack);
  std::string Error;
  EXPECT_EQ(Reply.Text, Service->queryCctStats(4, Error));
  EXPECT_TRUE(Error.empty());

  // A query for an absent window rejects this request, not the session.
  Query.Serial = 3;
  Query.Window = 99;
  ASSERT_TRUE(Conn.send(Query));
  ASSERT_EQ(Conn.receive(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Reject);
  EXPECT_EQ(Reply.Serial, 3u);
  Query.Serial = 4;
  Query.Window = 4;
  ASSERT_TRUE(Conn.send(Query));
  ASSERT_EQ(Conn.receive(Reply), WireStatus::Ok);
  EXPECT_EQ(Reply.Type, FrameType::Ack);
}

//===----------------------------------------------------------------------===//
// Resource limits
//===----------------------------------------------------------------------===//

TEST_F(ServerLimitTest, IdleConnectionsAreSweptAndCounted) {
  ServerConfig Cfg;
  Cfg.IdleTimeoutMs = 100;
  ASSERT_TRUE(open(/*Hello=*/true, Cfg));
  // Say nothing; the sweep must close us.
  EXPECT_TRUE(readEof(Conn));
  ServerStats Stats = Front->stats();
  EXPECT_GE(Stats.IdleClosed, 1u);
  EXPECT_EQ(Stats.OpenConnections, 0u);
}

TEST_F(ServerLimitTest, WriteBackpressurePausesReading) {
  ServerConfig Cfg;
  Cfg.WriteBufferLimit = 4096;
  // Shrink the kernel's slack on both ends so replies the client is not
  // reading land in the server's own buffer — the state under test —
  // rather than in socket buffers. A tiny client receive buffer makes
  // the kernel push back on the server quickly once we stop reading.
  Cfg.SendBufferBytes = 4096;
  ASSERT_TRUE(open(/*Hello=*/true, Cfg, IngestConfig{},
                   /*ReceiveBufferBytes=*/4096));
  Frame Up;
  Up.Type = FrameType::Upload;
  Up.Serial = 1;
  Up.Window = 0;
  Up.Artifact = encodedArtifact("wire;bp");
  ASSERT_TRUE(Conn.send(Up));
  Frame Reply;
  ASSERT_EQ(Conn.receive(Reply), WireStatus::Ok);
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
  ASSERT_TRUE(Conn.sendBytes(Burst));

  // Hold off draining until the server has actually parked replies and
  // paused us — otherwise (e.g. under a sanitizer's slowdown) this
  // thread can race ahead and absorb replies as fast as the server
  // renders them, and the buffer under test never fills.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Front->stats().ReadPauses == 0 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Now drain: every reply must still arrive, in order.
  for (unsigned Index = 0; Index != Queries; ++Index) {
    ASSERT_EQ(Conn.receive(Reply), WireStatus::Ok) << "query " << Index;
    EXPECT_EQ(Reply.Serial, 10u + Index);
    EXPECT_EQ(Reply.Type, FrameType::Ack);
  }
  EXPECT_GE(Front->stats().ReadPauses, 1u);
  EXPECT_EQ(Front->stats().Queries, uint64_t(Queries));
}

TEST_F(ServerLimitTest, TokenBucketRefusesOverTheWire) {
  // A frozen injected clock: the bucket never refills, so verdicts are
  // exact — burst-many accepts, then rate-limited rejects.
  IngestConfig Config;
  Config.TenantRatePerSec = 1;
  Config.TenantRateBurst = 2;
  Config.RateClockNs = [] { return uint64_t(1000000000); };
  ASSERT_TRUE(open(/*Hello=*/true, {}, Config));
  unsigned Accepted = 0, RateLimited = 0;
  for (unsigned Index = 0; Index != 5; ++Index) {
    Frame Up;
    Up.Type = FrameType::Upload;
    Up.Serial = Index;
    Up.Window = 0;
    Up.Artifact = encodedArtifact("wire;rate" + std::to_string(Index));
    ASSERT_TRUE(Conn.send(Up));
    Frame Reply;
    ASSERT_EQ(Conn.receive(Reply), WireStatus::Ok);
    if (Reply.Type == FrameType::Ack) {
      ++Accepted;
    } else {
      EXPECT_EQ(Reply.Reason, RejectReason::RateLimited);
      ++RateLimited;
    }
  }
  EXPECT_EQ(Accepted, 2u);
  EXPECT_EQ(RateLimited, 3u);
  IngestStats Stats = Service->stats();
  EXPECT_EQ(Stats.RejectedBy[static_cast<size_t>(RejectReason::RateLimited)],
            3u);
}
