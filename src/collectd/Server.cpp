//===- collectd/Server.cpp - epoll socket front end ---------------------------===//

#include "collectd/Server.h"

#include "obs/Obs.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace pp;
using namespace pp::collectd;

namespace {

/// listen(2) backlog.
constexpr int ListenBacklog = 511;

uint64_t nowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

/// Per-socket session state. Owned by the event thread; nothing here is
/// shared.
struct Server::Connection {
  int Fd = -1;
  FrameDecoder Decoder;
  /// Encoded replies not yet accepted by the kernel; WriteStart is the
  /// sent prefix (compacted when fully drained).
  std::vector<uint8_t> WriteBuf;
  size_t WriteStart = 0;
  /// Session phase: HELLO seen and accepted.
  bool HelloDone = false;
  /// Tenant bound by HELLO; stamped on every upload.
  std::string Tenant;
  /// Peer finished sending (EOF) — flush replies, then close.
  bool ReadEof = false;
  /// Fatal protocol error queued a REJECT — close once it flushes.
  bool Failing = false;
  /// Reads paused by write backpressure.
  bool ReadPaused = false;
  /// Current epoll interest, so updateInterest only syscalls on change.
  uint32_t Interest = 0;
  uint64_t LastActiveMs = 0;
  uint64_t ConnBytesIn = 0;
  /// One span covering the whole session; Work = bytes read.
  std::unique_ptr<obs::SpanScope> Span;

  size_t pendingWrite() const { return WriteBuf.size() - WriteStart; }
};

Server::Server(ServerConfig C, IngestService &Service)
    : Cfg(std::move(C)), Service(Service) {}

Server::~Server() { stop(); }

bool Server::start(std::string &Error) {
  ListenFd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ListenFd < 0) {
    Error = std::string("socket: ") + strerror(errno);
    return false;
  }
  int One = 1;
  setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Cfg.Port);
  if (inet_pton(AF_INET, Cfg.BindAddress.c_str(), &Addr.sin_addr) != 1) {
    Error = "bad bind address: " + Cfg.BindAddress;
    stop();
    return false;
  }
  if (bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Error = std::string("bind: ") + strerror(errno);
    stop();
    return false;
  }
  if (listen(ListenFd, ListenBacklog) != 0) {
    Error = std::string("listen: ") + strerror(errno);
    stop();
    return false;
  }

  socklen_t Len = sizeof(Addr);
  if (getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0) {
    Error = std::string("getsockname: ") + strerror(errno);
    stop();
    return false;
  }
  BoundPort = ntohs(Addr.sin_port);

  EpollFd = epoll_create1(EPOLL_CLOEXEC);
  WakeFd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (EpollFd < 0 || WakeFd < 0) {
    Error = std::string("epoll/eventfd: ") + strerror(errno);
    stop();
    return false;
  }
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.fd = ListenFd;
  epoll_ctl(EpollFd, EPOLL_CTL_ADD, ListenFd, &Ev);
  Ev.data.fd = WakeFd;
  epoll_ctl(EpollFd, EPOLL_CTL_ADD, WakeFd, &Ev);

  Stopping.store(false, std::memory_order_relaxed);
  EventThread = std::thread([this] { eventLoop(); });
  return true;
}

void Server::stop() {
  if (EventThread.joinable()) {
    Stopping.store(true, std::memory_order_relaxed);
    uint64_t One = 1;
    ssize_t Ignored = write(WakeFd, &One, sizeof(One));
    (void)Ignored;
    EventThread.join();
  }
  // The event thread is gone; tear down whatever remains.
  for (auto &Entry : Connections)
    close(Entry.second->Fd);
  Connections.clear();
  for (int *Fd : {&ListenFd, &EpollFd, &WakeFd}) {
    if (*Fd >= 0)
      close(*Fd);
    *Fd = -1;
  }
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMu);
  return Stats;
}

void Server::eventLoop() {
  // Half the idle timeout bounds the sweep latency; one second bounds
  // the shutdown latency when idle closing is off.
  int TimeoutMs = 1000;
  if (Cfg.IdleTimeoutMs)
    TimeoutMs = static_cast<int>(
        std::min<uint64_t>(1000, std::max<uint64_t>(1, Cfg.IdleTimeoutMs / 2)));

  epoll_event Events[64];
  while (!Stopping.load(std::memory_order_relaxed)) {
    int N = epoll_wait(EpollFd, Events, 64, TimeoutMs);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    for (int Index = 0; Index != N; ++Index) {
      int Fd = Events[Index].data.fd;
      uint32_t Mask = Events[Index].events;
      if (Fd == WakeFd) {
        uint64_t Count;
        ssize_t Ignored = read(WakeFd, &Count, sizeof(Count));
        (void)Ignored;
        continue;
      }
      if (Fd == ListenFd) {
        acceptReady();
        continue;
      }
      // The connection may have been closed by an earlier event in this
      // same batch; look it up fresh.
      auto It = Connections.find(Fd);
      if (It == Connections.end())
        continue;
      Connection &Conn = *It->second;
      if (Mask & EPOLLOUT)
        writeReady(Conn);
      if (Connections.find(Fd) == Connections.end())
        continue;
      if (Mask & (EPOLLIN | EPOLLHUP | EPOLLERR))
        readReady(Conn);
    }
    if (Cfg.IdleTimeoutMs)
      sweepIdle(nowMs());
  }
}

void Server::acceptReady() {
  for (;;) {
    int Fd = accept4(ListenFd, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // EAGAIN or transient accept failure: wait for the next wake
    }
    int One = 1;
    setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    if (Cfg.SendBufferBytes)
      setsockopt(Fd, SOL_SOCKET, SO_SNDBUF, &Cfg.SendBufferBytes,
                 sizeof(Cfg.SendBufferBytes));

    auto Conn = std::make_unique<Connection>();
    Conn->Fd = Fd;
    Conn->Decoder = FrameDecoder(Cfg.MaxPayloadBytes);
    Conn->LastActiveMs = nowMs();
    Conn->Span = std::make_unique<obs::SpanScope>("collectd", "serve",
                                                  "conn", /*Work=*/0);
    Conn->Interest = EPOLLIN;
    epoll_event Ev{};
    Ev.events = Conn->Interest;
    Ev.data.fd = Fd;
    epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev);
    Connections[Fd] = std::move(Conn);

    obs::add(obs::Counter::CollectdNetConns);
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.ConnectionsAccepted;
    Stats.OpenConnections = Connections.size();
  }
}

void Server::updateInterest(Connection &Conn) {
  uint32_t Want = 0;
  if (!Conn.ReadEof && !Conn.ReadPaused && !Conn.Failing)
    Want |= EPOLLIN;
  if (Conn.pendingWrite())
    Want |= EPOLLOUT;
  if (Want == Conn.Interest)
    return;
  Conn.Interest = Want;
  epoll_event Ev{};
  Ev.events = Want;
  Ev.data.fd = Conn.Fd;
  epoll_ctl(EpollFd, EPOLL_CTL_MOD, Conn.Fd, &Ev);
}

void Server::readReady(Connection &Conn) {
  int Fd = Conn.Fd;
  uint8_t Chunk[64 * 1024];
  bool SawEof = false;
  for (;;) {
    ssize_t Got = recv(Fd, Chunk, sizeof(Chunk), 0);
    if (Got < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      closeConnection(Fd); // reset underfoot
      return;
    }
    if (Got == 0) {
      SawEof = true;
      break;
    }
    Conn.LastActiveMs = nowMs();
    Conn.ConnBytesIn += static_cast<uint64_t>(Got);
    Conn.Decoder.feed(Chunk, static_cast<size_t>(Got));
    obs::add(obs::Counter::CollectdNetBytesIn, static_cast<uint64_t>(Got));
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      Stats.BytesIn += static_cast<uint64_t>(Got);
    }

    Frame F;
    WireStatus Status;
    while ((Status = Conn.Decoder.next(F)) == WireStatus::Ok) {
      obs::add(obs::Counter::CollectdNetFramesIn);
      {
        std::lock_guard<std::mutex> Lock(StatsMu);
        ++Stats.FramesIn;
      }
      handleFrame(Conn, F);
      // handleFrame may have closed the connection (protocol error with
      // an empty write queue); Conn is gone then.
      if (Connections.find(Fd) == Connections.end())
        return;
      if (Conn.Failing)
        break;
    }
    if (Status != WireStatus::NeedMore && !Conn.Failing) {
      failStream(Conn, Status);
      if (Connections.find(Fd) == Connections.end())
        return;
    }
    if (Conn.Failing || Conn.ReadPaused)
      break;
  }

  if (Connections.find(Fd) == Connections.end())
    return;
  if (SawEof) {
    Conn.ReadEof = true;
    if (!Conn.pendingWrite()) {
      closeConnection(Fd);
      return;
    }
  }
  Conn.Span->setWork(Conn.ConnBytesIn);
  updateInterest(Conn);
}

void Server::writeReady(Connection &Conn) {
  int Fd = Conn.Fd;
  while (Conn.pendingWrite()) {
    ssize_t Sent = send(Fd, Conn.WriteBuf.data() + Conn.WriteStart,
                        Conn.pendingWrite(), MSG_NOSIGNAL);
    if (Sent < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      closeConnection(Fd);
      return;
    }
    Conn.WriteStart += static_cast<size_t>(Sent);
    obs::add(obs::Counter::CollectdNetBytesOut, static_cast<uint64_t>(Sent));
    std::lock_guard<std::mutex> Lock(StatsMu);
    Stats.BytesOut += static_cast<uint64_t>(Sent);
  }
  if (!Conn.pendingWrite()) {
    Conn.WriteBuf.clear();
    Conn.WriteStart = 0;
    if (Conn.Failing || Conn.ReadEof) {
      closeConnection(Fd);
      return;
    }
  }
  // Resume reading once the queued replies drain below half the limit —
  // hysteresis so a connection near the edge does not thrash.
  if (Conn.ReadPaused && Conn.pendingWrite() < Cfg.WriteBufferLimit / 2)
    Conn.ReadPaused = false;
  Conn.LastActiveMs = nowMs();
  updateInterest(Conn);
}

void Server::sendFrame(Connection &Conn, const Frame &F) {
  int Fd = Conn.Fd;
  std::vector<uint8_t> Bytes = encodeFrame(F);
  Conn.WriteBuf.insert(Conn.WriteBuf.end(), Bytes.begin(), Bytes.end());
  obs::add(obs::Counter::CollectdNetFramesOut);
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.FramesOut;
  }
  // Optimistic flush: most replies fit the socket buffer and never need
  // an EPOLLOUT round trip. It may close the connection (send error);
  // Conn must not be touched after that.
  writeReady(Conn);
  if (Connections.find(Fd) == Connections.end())
    return;
  if (!Conn.ReadPaused && Conn.pendingWrite() > Cfg.WriteBufferLimit) {
    Conn.ReadPaused = true;
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.ReadPauses;
  }
}

void Server::failStream(Connection &Conn, WireStatus Status) {
  obs::add(obs::Counter::CollectdNetProtocolErrors);
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.ProtocolErrors;
  }
  Conn.Failing = true;
  int Fd = Conn.Fd;
  Frame Reject;
  Reject.Type = FrameType::Reject;
  Reject.Wire = Status;
  Reject.Message = std::string("stream error: ") + wireStatusName(Status);
  sendFrame(Conn, Reject);
  if (Connections.find(Fd) != Connections.end() && !Conn.pendingWrite())
    closeConnection(Fd);
}

void Server::handleFrame(Connection &Conn, Frame &F) {
  Conn.LastActiveMs = nowMs();

  // Session phase errors are REJECTs with a message, then a close: the
  // peer is speaking valid frames in an invalid order.
  auto Refuse = [&](uint64_t Serial, const std::string &Message) {
    obs::add(obs::Counter::CollectdNetProtocolErrors);
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Stats.ProtocolErrors;
    }
    Conn.Failing = true;
    int Fd = Conn.Fd;
    Frame Reject;
    Reject.Type = FrameType::Reject;
    Reject.Serial = Serial;
    Reject.Message = Message;
    sendFrame(Conn, Reject);
    if (Connections.find(Fd) != Connections.end() && !Conn.pendingWrite())
      closeConnection(Fd);
  };

  switch (F.Type) {
  case FrameType::Hello: {
    if (Conn.HelloDone)
      return Refuse(0, "duplicate hello");
    if (F.Protocol != WireVersion)
      return Refuse(0, "unsupported protocol " + std::to_string(F.Protocol));
    if (F.Tenant.empty())
      return Refuse(0, "hello names no tenant");
    Conn.HelloDone = true;
    Conn.Tenant = F.Tenant;
    Frame Ack;
    Ack.Type = FrameType::Ack;
    Ack.Text = "hello " + F.Tenant;
    sendFrame(Conn, Ack);
    return;
  }
  case FrameType::Upload: {
    if (!Conn.HelloDone)
      return Refuse(F.Serial, "hello required before upload");
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Stats.Uploads;
    }
    Upload U;
    U.Tenant = Conn.Tenant;
    U.Window = F.Window;
    U.Bytes = std::move(F.Artifact);
    UploadResult Result = Service.ingestNow(std::move(U));
    Frame Reply;
    Reply.Serial = F.Serial;
    if (Result.Accepted) {
      Reply.Type = FrameType::Ack;
    } else {
      Reply.Type = FrameType::Reject;
      Reply.Reason = Result.Reason;
      Reply.Decode = Result.Decode;
      Reply.Message = rejectReasonName(Result.Reason);
    }
    sendFrame(Conn, Reply);
    return;
  }
  case FrameType::Query: {
    if (!Conn.HelloDone)
      return Refuse(F.Serial, "hello required before query");
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Stats.Queries;
    }
    std::string Error;
    std::string Text;
    switch (F.Kind) {
    case QueryKind::TopPaths:
      Text = Service.queryTopPaths(F.Window, F.Limit, Error);
      break;
    case QueryKind::TopProcs:
      Text = Service.queryTopProcs(F.Window, F.Limit, Error);
      break;
    case QueryKind::CctStats:
      Text = Service.queryCctStats(F.Window, Error);
      break;
    }
    Frame Reply;
    Reply.Serial = F.Serial;
    if (!Error.empty()) {
      // A query for an absent window is an error for this request, not
      // for the session: reply typed and keep the connection.
      Reply.Type = FrameType::Reject;
      Reply.Message = Error;
    } else {
      Reply.Type = FrameType::Ack;
      Reply.Text = std::move(Text);
    }
    sendFrame(Conn, Reply);
    return;
  }
  case FrameType::Ack:
  case FrameType::Reject:
    // Server-to-client frames have no business arriving here.
    return Refuse(F.Serial, "unexpected server frame from client");
  }
}

void Server::closeConnection(int Fd) {
  auto It = Connections.find(Fd);
  if (It == Connections.end())
    return;
  It->second->Span->setWork(It->second->ConnBytesIn);
  Connections.erase(It);
  // Stats first, fd second: the close() wakes the peer, and a peer that
  // reads stats the moment it sees EOF must find them settled.
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.ConnectionsClosed;
    Stats.OpenConnections = Connections.size();
  }
  close(Fd);
}

void Server::sweepIdle(uint64_t NowMs) {
  std::vector<int> Stale;
  for (auto &Entry : Connections)
    if (NowMs - Entry.second->LastActiveMs >= Cfg.IdleTimeoutMs)
      Stale.push_back(Entry.first);
  for (int Fd : Stale) {
    obs::add(obs::Counter::CollectdNetIdleClosed);
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Stats.IdleClosed;
    }
    closeConnection(Fd);
  }
}
