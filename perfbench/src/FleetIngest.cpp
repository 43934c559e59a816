//===- perfbench/src/FleetIngest.cpp - The fleet-ingest workload ----------===//
//
// The pp-collectd --serve shape: an in-process collectd::Server over
// loopback feeding an IngestService in Threads=0 mode (what serve mode
// uses). One client thread drives a fixed set of connections in a closed
// loop — each keeps a fixed number of frames in flight and sends the next
// only when a reply comes back — with QUERY frames interleaved at a fixed
// ratio.
//
// Uploads are a seeded Zipf-skewed mix of the suite's workloads x
// {flowhw, contextflowhw} x host fingerprints across several windows. A
// small seeded share is damaged on purpose (a flipped byte, or an
// artifact of the wrong acquisition) and must get its planned typed
// REJECT. This is the only workload that runs Wire, Server and the
// incremental MergeTree.
//
// The traced run replays the same frames in process, timing the wire
// codec, the artifact decoder, ingestNow and the queries one by one.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "collectd/Ingest.h"
#include "collectd/Server.h"
#include "collectd/Wire.h"
#include "driver/Driver.h"
#include "profdb/Artifact.h"
#include "support/Format.h"
#include "workloads/Spec.h"

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace perfbench {

using namespace pp;

namespace {

// The traffic mix. Windows and CorruptShare follow the fleet examples in
// the repository's README ("Fleet collection": 4 windows, 1 in 50 uploads
// corrupted in flight). Every other value is an assumption of this
// benchmark, not taken from a measured fleet (perfbench/README.md).
constexpr unsigned Connections = 3;
/// Frames each connection keeps in flight.
constexpr unsigned InFlight = 4;
/// Every QueryEvery-th frame of a connection is a QUERY.
constexpr unsigned QueryEvery = 8;
constexpr unsigned Windows = 4;
/// Each window is sent in this many steps (see wirePass).
constexpr unsigned StepsPerWindow = 3;
constexpr unsigned Hosts = 8;
/// Zipf exponent of the workload mix (rank = suite order, fixed, so the
/// seed moves which upload comes when, not how heavy the mix is).
constexpr double ZipfS = 1.1;
/// Share of uploads damaged by a flipped byte, and share re-encoded with
/// the wrong acquisition.
constexpr double CorruptShare = 0.02;
constexpr double CrossShare = 0.01;
/// Set-up repetitions; setup_s sums each step's fastest repetition.
constexpr unsigned SetupReps = 15;
constexpr size_t QueryLimit = 10;

unsigned framesPerConnection(const Options &O) {
  return O.Size == "smoke" ? 64 : 600;
}

const prof::Mode UploadModes[2] = {prof::Mode::FlowHw,
                                   prof::Mode::ContextFlowHw};

enum class Verdict { Accept, Corrupt, Cross, Query };

/// One planned frame; its bytes are made when it is sent.
struct Planned {
  Verdict Expect = Verdict::Accept;
  unsigned Corpus = 0; ///< index into Corpus (uploads)
  uint64_t Window = 0;
  uint64_t Serial = 0;
  collectd::QueryKind Kind = collectd::QueryKind::TopPaths;
};

struct Fleet {
  /// Encoded artifacts: (workload, mode, host), then one wrong-acquisition
  /// variant per (workload, mode).
  std::vector<std::vector<uint8_t>> Corpus;
  std::vector<std::vector<Planned>> Plan; ///< per connection
  /// Per connection, the end of each step's frames in Plan.
  std::vector<std::vector<size_t>> StepEnd;
  size_t Uploads = 0, Queries = 0;
  size_t Expected[4] = {};
};

std::string tenantOf(unsigned Conn) { return formatString("tenant-%u", Conn); }

/// \p Count uploads split over (workload, mode) pairs in proportion to
/// \p Weight by largest remainder; Corpus holds the pair index.
std::vector<Planned> apportion(const std::vector<double> &Weight,
                               unsigned Count) {
  double Total = 0;
  for (double W : Weight)
    Total += W;
  std::vector<unsigned> Quota(Weight.size());
  std::vector<std::pair<double, size_t>> Remainder;
  unsigned Given = 0;
  for (size_t K = 0; K != Weight.size(); ++K) {
    double Exact = Count * Weight[K] / Total;
    Quota[K] = unsigned(Exact);
    Given += Quota[K];
    Remainder.push_back({Quota[K] - Exact, K});
  }
  std::sort(Remainder.begin(), Remainder.end());
  for (size_t K = 0; Given < Count; ++K, ++Given)
    ++Quota[Remainder[K].second];
  std::vector<Planned> Out;
  for (size_t K = 0; K != Weight.size(); ++K)
    for (unsigned Q = 0; Q != Quota[K]; ++Q) {
      Planned P;
      P.Corpus = unsigned(K);
      Out.push_back(P);
    }
  return Out;
}

/// Set-up: profile the upload corpus, encode it per host, plan the frames.
/// Steps: each corpus run, each workload's encoding, the plan.
void buildFleet(const Options &O, Fleet &F, Result &R, StepTimes &Steps) {
  const auto &Suite = workloads::spec95Suite();
  std::vector<driver::RunPlan> Plans;
  for (const workloads::WorkloadSpec &Spec : Suite)
    for (prof::Mode M : UploadModes) {
      driver::RunPlan Plan;
      Plan.Workload = Spec.Name;
      Plan.Options.Config.M = M;
      Plans.push_back(std::move(Plan));
    }
  std::vector<driver::OutcomePtr> Runs;
  {
    driver::Driver D("", SerialWorkers);
    Runs = runEach(D, std::move(Plans), Steps);
  }
  F = Fleet();
  std::vector<std::vector<uint8_t>> Cross;
  for (size_t W = 0; W != Suite.size(); ++W) {
    Clock::time_point T0 = Clock::now();
    auto Module = Suite[W].Build(1);
    for (unsigned M = 0; M != 2; ++M) {
      const driver::OutcomePtr &Out = Runs[W * 2 + M];
      if (!Out || !Out->Result.Ok) {
        R.mismatch("corpus run failed: " + Suite[W].Name);
        return;
      }
      prof::ProfileConfig Config;
      Config.M = UploadModes[M];
      std::string Base = Suite[W].Name + ";" + prof::modeName(Config.M);
      profdb::Artifact A =
          profdb::artifactFromOutcome(*Out, *Module, Base, Suite[W].Name, 1,
                                      Config);
      for (unsigned H = 0; H != Hosts; ++H) {
        A.Fingerprint = Base + formatString(";host=%u", H);
        A.SourceHash = profdb::fnv1a(A.Fingerprint);
        F.Corpus.push_back(profdb::encodeArtifact(A));
      }
      A.Fingerprint = Base + ";host=sampler";
      A.Schema.Acquisition = "overflow";
      Cross.push_back(profdb::encodeArtifact(A));
    }
    Steps.record(secondsSince(T0));
  }
  Clock::time_point T0 = Clock::now();
  size_t CrossBase = F.Corpus.size();
  for (std::vector<uint8_t> &Bytes : Cross)
    F.Corpus.push_back(std::move(Bytes));

  // Each window of each connection gets the same upload multiset: Zipf
  // quotas over (workload, mode) pairs by largest remainder, hosts in
  // turn, and fixed counts of damaged uploads. The seed only shuffles the
  // order and picks which uploads are damaged, so the work in a pass does
  // not depend on the seed.
  unsigned N = framesPerConnection(O);
  std::vector<double> Weight;
  for (size_t W = 0; W != Suite.size(); ++W)
    for (unsigned M = 0; M != 2; ++M)
      Weight.push_back(1.0 / std::pow(double(W + 1), ZipfS));
  Rng Draw(O.Seed);
  uint64_t Serial = 1;
  F.Plan.assign(Connections, {});
  F.StepEnd.assign(Connections, {});
  for (unsigned C = 0; C != Connections; ++C) {
    bool HaveWindow = false;
    uint64_t LastAccepted = 0;
    unsigned I = 0;
    for (unsigned Window = 0; Window != Windows; ++Window) {
      unsigned Start = I, End = (Window + 1) * N / Windows;
      unsigned Uploads = 0;
      for (unsigned J = I; J != End; ++J)
        Uploads += J % QueryEvery != QueryEvery - 1;
      std::vector<Planned> Batch = apportion(Weight, Uploads);
      for (size_t K = Batch.size(); K > 1; --K)
        std::swap(Batch[K - 1], Batch[Draw.below(K)]);
      // The shuffle is uniform, so damaging the first few is a seeded
      // choice of which uploads are damaged.
      size_t Cross = std::max<size_t>(1, std::lround(Uploads * CrossShare));
      size_t Corrupt =
          std::max<size_t>(1, std::lround(Uploads * CorruptShare));
      for (size_t K = 0; K != Batch.size(); ++K) {
        unsigned Pair = Batch[K].Corpus;
        Batch[K].Window = Window;
        if (K < Cross) {
          Batch[K].Expect = Verdict::Cross;
          Batch[K].Corpus = unsigned(CrossBase + Pair);
        } else {
          Batch[K].Expect =
              K < Cross + Corrupt ? Verdict::Corrupt : Verdict::Accept;
          Batch[K].Corpus = Pair * Hosts + unsigned(K % Hosts);
        }
      }
      for (size_t K = Batch.size(); K > 1; --K)
        std::swap(Batch[K - 1], Batch[Draw.below(K)]);

      size_t Next = 0;
      unsigned Step = 1;
      for (; I != End; ++I) {
        if (Step != StepsPerWindow &&
            I == Start + (End - Start) * Step / StepsPerWindow) {
          F.StepEnd[C].push_back(F.Plan[C].size());
          ++Step;
        }
        Planned P;
        if (I % QueryEvery == QueryEvery - 1) {
          if (!HaveWindow)
            continue; // nothing to query yet on this connection
          P.Expect = Verdict::Query;
          P.Window = LastAccepted;
          P.Kind = (I / QueryEvery) % 2 ? collectd::QueryKind::TopProcs
                                        : collectd::QueryKind::TopPaths;
          ++F.Queries;
        } else {
          P = Batch[Next++];
          if (P.Expect == Verdict::Accept) {
            HaveWindow = true;
            LastAccepted = P.Window;
          }
          ++F.Uploads;
        }
        P.Serial = Serial++;
        ++F.Expected[static_cast<unsigned>(P.Expect)];
        F.Plan[C].push_back(P);
      }
      F.StepEnd[C].push_back(F.Plan[C].size());
    }
  }
  Steps.record(secondsSince(T0));
}

/// The wire frame of planned frame \p P.
collectd::Frame frameOf(const Fleet &F, const Planned &P) {
  collectd::Frame Frame;
  Frame.Serial = P.Serial;
  Frame.Window = P.Window;
  if (P.Expect == Verdict::Query) {
    Frame.Type = collectd::FrameType::Query;
    Frame.Kind = P.Kind;
    Frame.Limit = QueryLimit;
    return Frame;
  }
  Frame.Type = collectd::FrameType::Upload;
  Frame.Artifact = F.Corpus[P.Corpus];
  if (P.Expect == Verdict::Corrupt)
    Frame.Artifact[Frame.Artifact.size() / 2] ^= 0x5a;
  return Frame;
}

/// True when reply \p Reply is the planned answer to \p P.
bool replyMatches(const Planned &P, const collectd::Frame &Reply) {
  if (Reply.Serial != P.Serial)
    return false;
  switch (P.Expect) {
  case Verdict::Accept:
    return Reply.Type == collectd::FrameType::Ack;
  case Verdict::Query:
    return Reply.Type == collectd::FrameType::Ack && !Reply.Text.empty();
  case Verdict::Corrupt:
    return Reply.Type == collectd::FrameType::Reject &&
           Reply.Reason == collectd::RejectReason::Corrupt &&
           Reply.Decode == profdb::DecodeStatus::BadChecksum;
  case Verdict::Cross:
    return Reply.Type == collectd::FrameType::Reject &&
           Reply.Reason == collectd::RejectReason::CrossAcquisition;
  }
  return false;
}

/// The same verdict from an in-process ingestNow.
bool resultMatches(const Planned &P, const collectd::UploadResult &Res) {
  switch (P.Expect) {
  case Verdict::Accept:
    return Res.Accepted;
  case Verdict::Corrupt:
    return !Res.Accepted && Res.Reason == collectd::RejectReason::Corrupt &&
           Res.Decode == profdb::DecodeStatus::BadChecksum;
  case Verdict::Cross:
    return !Res.Accepted &&
           Res.Reason == collectd::RejectReason::CrossAcquisition;
  case Verdict::Query:
    break;
  }
  return false;
}

collectd::IngestConfig serveConfig() {
  collectd::IngestConfig Config;
  Config.Threads = 0; // serve mode: the event loop ingests synchronously
  Config.RetainWindows = 0;
  return Config;
}

using WindowBytes = std::map<uint64_t, std::vector<std::vector<uint8_t>>>;

WindowBytes foldedWindows(collectd::IngestService &S, Result &R) {
  WindowBytes Out;
  for (uint64_t W : S.windows()) {
    std::string Error;
    Out[W] = S.windowBytes(W, Error);
    if (!Error.empty())
      R.mismatch("window bytes: " + Error);
  }
  return Out;
}

/// The gate's reference: every upload folded serially, in process, in
/// plan order, with every verdict checked.
WindowBytes serialFold(const Fleet &F, Result &R) {
  collectd::IngestService S(serveConfig());
  for (unsigned C = 0; C != Connections; ++C)
    for (const Planned &P : F.Plan[C]) {
      if (P.Expect == Verdict::Query)
        continue;
      collectd::Frame Frame = frameOf(F, P);
      collectd::UploadResult Res =
          S.ingestNow({tenantOf(C), P.Window, std::move(Frame.Artifact)});
      if (!resultMatches(P, Res))
        R.mismatch("serial fold: unplanned verdict");
    }
  return foldedWindows(S, R);
}

/// One client connection of the closed loop.
struct Client {
  int Fd = -1;
  unsigned Conn = 0;
  size_t Next = 0;
  std::vector<uint8_t> Out;
  size_t OutStart = 0;
  collectd::FrameDecoder Decoder;
  std::deque<std::pair<size_t, Clock::time_point>> Waiting;
};

bool writeAll(int Fd, const std::vector<uint8_t> &Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                       MSG_NOSIGNAL);
    if (N <= 0)
      return false;
    Off += size_t(N);
  }
  return true;
}

/// Blocks until one frame arrives on \p Fd.
bool readFrame(int Fd, collectd::FrameDecoder &Decoder, collectd::Frame &Out) {
  uint8_t Buf[4096];
  for (;;) {
    collectd::WireStatus S = Decoder.next(Out);
    if (S == collectd::WireStatus::Ok)
      return true;
    if (S != collectd::WireStatus::NeedMore)
      return false;
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      return false;
    Decoder.feed(Buf, size_t(N));
  }
}

/// What one wire pass measured.
struct WirePass {
  std::vector<double> UploadMs, QueryMs;
  uint64_t ReadPauses = 0;
};

/// One timed pass over loopback, one step after another: every
/// connection sends its frames of a step (a third of a window), and the
/// next step starts when all of them are answered. Each step is timed
/// from its first frame to its last reply; connect, HELLO and the fold
/// check are outside the clock.
WirePass wirePass(const Fleet &F, const WindowBytes &Ref, Result &R,
                  StepTimes &Steps) {
  WirePass Pass;
  collectd::IngestService Service(serveConfig());
  collectd::Server Server(collectd::ServerConfig(), Service);
  std::string Error;
  if (!Server.start(Error)) {
    R.mismatch("server start: " + Error);
    return Pass;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Server.port());
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  std::vector<Client> Clients(Connections);
  for (unsigned C = 0; C != Connections; ++C) {
    Client &Cl = Clients[C];
    Cl.Conn = C;
    Cl.Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    int One = 1;
    ::setsockopt(Cl.Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    collectd::Frame Hello, Reply;
    Hello.Type = collectd::FrameType::Hello;
    Hello.Tenant = tenantOf(C);
    Hello.Acquisition = "exact";
    if (Cl.Fd < 0 ||
        ::connect(Cl.Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ||
        !writeAll(Cl.Fd, collectd::encodeFrame(Hello)) ||
        !readFrame(Cl.Fd, Cl.Decoder, Reply) ||
        Reply.Type != collectd::FrameType::Ack) {
      R.mismatch("connection setup failed");
      for (Client &Open : Clients)
        if (Open.Fd >= 0)
          ::close(Open.Fd);
      Server.stop();
      return Pass;
    }
    ::fcntl(Cl.Fd, F_SETFL, ::fcntl(Cl.Fd, F_GETFL) | O_NONBLOCK);
  }

  bool Broken = false;
  std::vector<pollfd> Polls(Connections);
  uint8_t Buf[1 << 16];
  for (size_t Step = 0; Step != F.StepEnd[0].size() && !Broken; ++Step) {
    Clock::time_point T0 = Clock::now();
    size_t Open = Connections;
    while (Open && !Broken) {
      for (unsigned C = 0; C != Connections; ++C) {
        Client &Cl = Clients[C];
        const std::vector<Planned> &Plan = F.Plan[C];
        size_t End = F.StepEnd[C][Step];
        while (Cl.Waiting.size() < InFlight && Cl.Next < End) {
          std::vector<uint8_t> Bytes =
              collectd::encodeFrame(frameOf(F, Plan[Cl.Next]));
          Cl.Out.insert(Cl.Out.end(), Bytes.begin(), Bytes.end());
          Cl.Waiting.emplace_back(Cl.Next++, Clock::now());
        }
        while (Cl.OutStart < Cl.Out.size()) {
          ssize_t N = ::send(Cl.Fd, Cl.Out.data() + Cl.OutStart,
                             Cl.Out.size() - Cl.OutStart, MSG_NOSIGNAL);
          if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
          if (N <= 0) {
            Broken = true;
            break;
          }
          Cl.OutStart += size_t(N);
        }
        if (Cl.OutStart == Cl.Out.size()) {
          Cl.Out.clear();
          Cl.OutStart = 0;
        }
        Polls[C].fd = Cl.Waiting.empty() ? -1 : Cl.Fd;
        Polls[C].events = short(POLLIN | (Cl.Out.empty() ? 0 : POLLOUT));
        Polls[C].revents = 0;
      }
      if (Broken || ::poll(Polls.data(), Polls.size(), 10000) <= 0) {
        Broken = true;
        break;
      }
      for (unsigned C = 0; C != Connections; ++C) {
        Client &Cl = Clients[C];
        if (!(Polls[C].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        ssize_t N = ::recv(Cl.Fd, Buf, sizeof(Buf), 0);
        if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
          continue;
        if (N <= 0) {
          Broken = true;
          break;
        }
        Cl.Decoder.feed(Buf, size_t(N));
        collectd::Frame Reply;
        collectd::WireStatus S;
        while ((S = Cl.Decoder.next(Reply)) == collectd::WireStatus::Ok) {
          if (Cl.Waiting.empty()) {
            Broken = true;
            break;
          }
          auto [Index, Sent] = Cl.Waiting.front();
          Cl.Waiting.pop_front();
          double Ms = secondsSince(Sent) * 1e3;
          const Planned &P = F.Plan[C][Index];
          (P.Expect == Verdict::Query ? Pass.QueryMs : Pass.UploadMs)
              .push_back(Ms);
          ++R.Attempted;
          if (!replyMatches(P, Reply))
            R.mismatch(formatString("unplanned reply to serial %llu",
                                    (unsigned long long)P.Serial));
        }
        if (S != collectd::WireStatus::NeedMore)
          Broken = true;
        if (Cl.Next == F.StepEnd[C][Step] && Cl.Waiting.empty())
          --Open;
      }
    }
    Steps.record(secondsSince(T0));
  }
  if (Broken)
    R.mismatch("connection broke mid-pass", 1);
  for (Client &Cl : Clients)
    ::close(Cl.Fd);
  Server.stop();
  Pass.ReadPauses = Server.stats().ReadPauses;

  ++R.Attempted;
  if (foldedWindows(Service, R) != Ref)
    R.mismatch("served windows differ from the serial fold");
  return Pass;
}

/// Layer totals of one in-process replay.
struct Replay {
  double Seconds = 0;
  std::vector<double> IngestMs, QueryMs;
  uint64_t BytesIn = 0;
  collectd::IngestStats Stats;
};

/// The same frames, in round-robin connection order, through the wire
/// codec and the ingest service on this thread, each layer under \p T.
Replay replay(const Fleet &F, const WindowBytes &Ref, Tracer &T, Result &R) {
  Replay Out;
  collectd::IngestService Service(serveConfig());
  collectd::FrameDecoder Decoder;
  size_t Longest = 0;
  for (const std::vector<Planned> &Plan : F.Plan)
    Longest = std::max(Longest, Plan.size());
  Clock::time_point T0 = Clock::now();
  for (size_t I = 0; I != Longest; ++I)
    for (unsigned C = 0; C != Connections; ++C) {
      if (I >= F.Plan[C].size())
        continue;
      const Planned &P = F.Plan[C][I];
      std::vector<uint8_t> Bytes;
      {
        Scoped Span(T, "collectd.wire.encode", P.Serial);
        Bytes = collectd::encodeFrame(frameOf(F, P));
      }
      Out.BytesIn += Bytes.size();
      collectd::Frame Frame;
      collectd::WireStatus Status;
      {
        Scoped Span(T, "collectd.wire.decode", P.Serial);
        Decoder.feed(Bytes);
        Status = Decoder.next(Frame);
      }
      ++R.Attempted;
      if (Status != collectd::WireStatus::Ok) {
        R.mismatch("replay: frame did not decode");
        continue;
      }
      if (P.Expect == Verdict::Query) {
        std::string Error, Text;
        int64_t Span = T.open("collectd.query", P.Serial);
        Text = Frame.Kind == collectd::QueryKind::TopPaths
                   ? Service.queryTopPaths(Frame.Window, Frame.Limit, Error)
                   : Service.queryTopProcs(Frame.Window, Frame.Limit, Error);
        Out.QueryMs.push_back(T.close(Span) * 1e3);
        if (!Error.empty() || Text.empty())
          R.mismatch("replay: query failed: " + Error);
        continue;
      }
      {
        // Decoded on its own only to split ingest time into decode and
        // admission (trial merge plus compaction).
        profdb::Artifact Scratch;
        Scoped Span(T, "profdb.decode", P.Serial);
        profdb::decodeArtifact(Frame.Artifact, Scratch);
      }
      int64_t Span = T.open("collectd.ingest", P.Serial);
      collectd::UploadResult Res =
          Service.ingestNow({tenantOf(C), Frame.Window,
                             std::move(Frame.Artifact)});
      Out.IngestMs.push_back(T.close(Span) * 1e3);
      if (!resultMatches(P, Res))
        R.mismatch("replay: unplanned verdict");
    }
  Out.Seconds = secondsSince(T0);
  Out.Stats = Service.stats();
  ++R.Attempted;
  if (foldedWindows(Service, R) != Ref)
    R.mismatch("replayed windows differ from the serial fold");
  return Out;
}

} // namespace

Result runFleetIngest(const Options &O) {
  Result R;
  R.fact("connections", Connections);
  R.fact("in_flight_per_connection", InFlight);
  R.fact("query_every", QueryEvery);
  R.fact("windows", Windows);
  R.fact("steps_per_window", StepsPerWindow);
  R.fact("hosts", Hosts);
  R.fact("scale", 1);
  R.fact("ingest_threads", 0);
  R.fact("frames_per_connection", framesPerConnection(O));

  Fleet F;
  StepTimes Setup;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    Setup.beginPass();
    buildFleet(O, F, R, Setup);
  }
  R.Samples["setup_s"] = Setup.totals();
  if (R.Failed)
    return R;
  R.fact("uploads_per_pass", double(F.Uploads));
  R.fact("queries_per_pass", double(F.Queries));
  R.fact("planned_corrupt", double(F.Expected[unsigned(Verdict::Corrupt)]));
  R.fact("planned_cross_acquisition",
         double(F.Expected[unsigned(Verdict::Cross)]));
  WindowBytes Ref = serialFold(F, R);
  StepTimes Ignored;
  Ignored.beginPass();
  wirePass(F, Ref, R, Ignored); // warm-up

  if (!O.Trace) {
    // Latencies are summarised per pass, and the run reports the median
    // pass's figures, so that no sample store grows with the pass count
    // (it would show in peak_rss_mb).
    std::vector<double> UploadP50, UploadP99, QueryP50;
    size_t UploadSamples = 0, QuerySamples = 0;
    StepTimes Steps;
    repeatPasses(O.Seconds, 3, Steps, [&] {
      WirePass P = wirePass(F, Ref, R, Steps);
      UploadP50.push_back(median(P.UploadMs));
      UploadP99.push_back(quantile(P.UploadMs, 0.99));
      QueryP50.push_back(median(P.QueryMs));
      UploadSamples = P.UploadMs.size();
      QuerySamples = P.QueryMs.size();
    });
    double Wall = Steps.fastestSum();
    R.Samples["wall_s"] = Steps.totals();
    R.Samples["upload_p50_ms"] = UploadP50;
    R.Samples["upload_p99_ms"] = UploadP99;
    R.Samples["query_p50_ms"] = QueryP50;
    R.fact("passes", double(Steps.passes()));
    R.fact("setup_p50_s", median(Setup.totals()));
    R.fact("wall_p50_s", median(Steps.totals()));
    R.fact("uploads_per_s", double(F.Uploads) / Wall);
    R.fact("upload_p50_ms", median(UploadP50));
    R.fact("upload_p99_ms", median(UploadP99));
    R.fact("upload_samples_per_pass", double(UploadSamples));
    R.fact("query_p50_ms", median(QueryP50));
    R.fact("query_samples_per_pass", double(QuerySamples));
    R.metric("setup_s", Setup.fastestSum(), "s");
    R.metric("wall_s", Wall, "s");
    R.metric("peak_rss_mb", peakRssMb(), "MB");
    return R;
  }

  WirePass Wire = wirePass(F, Ref, R, Ignored);
  Tracer On(true);
  Replay Traced;
  double Untraced = 0, TracedWall = 0;
  for (unsigned Pair = 0; Pair != TracePairs; ++Pair) {
    Tracer Off(false);
    double Plain = replay(F, Ref, Off, R).Seconds;
    On = Tracer(true);
    Traced = replay(F, Ref, On, R);
    Untraced = Pair == 0 ? Plain : std::min(Untraced, Plain);
    TracedWall =
        Pair == 0 ? Traced.Seconds : std::min(TracedWall, Traced.Seconds);
  }
  On.write(O.WorkDir + "/trace-fleet-ingest.jsonl");

  double Decode = On.total("profdb.decode");
  double Ingest = On.total("collectd.ingest");
  R.metric("collectd.wire.encode_s", On.total("collectd.wire.encode"), "s");
  R.metric("collectd.wire.decode_s", On.total("collectd.wire.decode"), "s");
  R.metric("collectd.wire.bytes_in", double(Traced.BytesIn), "bytes");
  R.metric("profdb.decode_s", Decode, "s");
  R.metric("collectd.ingest_s", Ingest, "s");
  R.metric("collectd.admit_s", Ingest - Decode, "s");
  R.metric("collectd.compactions", double(Traced.Stats.Compactions), "count");
  R.metric("collectd.accepted", double(Traced.Stats.Accepted), "count");
  for (unsigned Reason = 1;
       Reason != unsigned(collectd::RejectReason::NumReasons); ++Reason)
    R.metric(std::string("collectd.rejected.") +
                 collectd::rejectReasonName(collectd::RejectReason(Reason)),
             double(Traced.Stats.RejectedBy[Reason]), "count");
  R.metric("collectd.query_s", On.total("collectd.query"), "s");
  R.metric("collectd.query_p99_ms", quantile(Traced.QueryMs, 0.99), "ms");
  R.metric("collectd.server.overhead_ms",
           median(Wire.UploadMs) - median(Traced.IngestMs), "ms");
  R.metric("collectd.server.read_pauses", double(Wire.ReadPauses), "count");
  R.metric("trace.overhead_s", TracedWall - Untraced, "s");
  R.fact("wire_upload_p50_ms", median(Wire.UploadMs));
  R.fact("inprocess_ingest_p50_ms", median(Traced.IngestMs));
  R.fact("traced_wall_s", TracedWall);
  R.fact("untraced_wall_s", Untraced);
  R.fact("spans", double(On.spans().size()));
  return R;
}

} // namespace perfbench
