//===- collectd/Server.h - epoll socket front end --------------*- C++ -*-===//
///
/// \file
/// The collector's socket front end: a non-blocking epoll event loop
/// that speaks the framed protocol of collectd/Wire.h and feeds decoded
/// uploads into an IngestService. One event thread owns every socket;
/// ingest verdicts are computed synchronously per frame (ingestNow), so
/// a client's ACK/REJECT replies come back in upload order on its own
/// connection.
///
/// Session shape, per connection:
///
///   1. HELLO first. It binds the connection to a tenant and pins the
///      protocol version; anything else before it is a typed REJECT and
///      a close.
///   2. UPLOAD frames flow through the ingest admission pipeline (rate
///      limit, decode, acquisition, expiry, quota, merge checks); each
///      gets an ACK or a REJECT that mirrors the typed RejectReason.
///   3. QUERY frames render the folded windows through the same
///      renderers pp-report uses; answers ride in ACK text.
///   4. EOF from the client closes the session after the replies flush.
///
/// Resource discipline — the part that lets thousands of clients share
/// one loop:
///
///   * Bounded reads. Each connection's decoder buffers at most one
///     maximal frame (length fields are validated from the ten header
///     bytes, before the payload is awaited), so per-connection read
///     memory is capped whatever a client sends.
///   * Write backpressure. Replies queue in a per-connection buffer;
///     when it exceeds WriteBufferLimit the server stops *reading* that
///     connection until the buffer drains below half — a slow reader
///     throttles itself, not the fleet.
///   * Idle timeouts. A connection with no traffic for IdleTimeoutMs is
///     closed and counted.
///   * Frame-level errors (bad magic, liar lengths, CRC mismatches) are
///     answered with a REJECT carrying the typed WireStatus, then the
///     stream is closed — framing after corruption is unrecoverable.
///
//===----------------------------------------------------------------------===//

#ifndef PP_COLLECTD_SERVER_H
#define PP_COLLECTD_SERVER_H

#include "collectd/Ingest.h"
#include "collectd/Wire.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace pp {
namespace obs {
class SpanScope;
} // namespace obs

namespace collectd {

struct ServerConfig {
  /// Dotted-quad address to bind; tests and the loopback bench use the
  /// default.
  std::string BindAddress = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks, port() reports.
  uint16_t Port = 0;
  /// Per-frame payload ceiling handed to each connection's decoder.
  size_t MaxPayloadBytes = DefaultMaxPayloadBytes;
  /// Queued-reply bytes above which a connection stops being read until
  /// its writes drain below half of this.
  size_t WriteBufferLimit = 4u << 20;
  /// Connections silent for this long are closed; 0 disables.
  uint64_t IdleTimeoutMs = 30000;
  /// SO_SNDBUF for accepted sockets; 0 = kernel default. Small values
  /// make the kernel push back early, which is how the backpressure
  /// tests force the write path into its paused state deterministically.
  int SendBufferBytes = 0;
};

/// Event-loop counters. Read-side totals are exact; OpenConnections is a
/// snapshot.
struct ServerStats {
  uint64_t ConnectionsAccepted = 0;
  uint64_t ConnectionsClosed = 0;
  uint64_t IdleClosed = 0;
  uint64_t ProtocolErrors = 0;
  uint64_t FramesIn = 0;
  uint64_t FramesOut = 0;
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;
  uint64_t Uploads = 0;
  uint64_t Queries = 0;
  /// Times write backpressure paused reading a connection.
  uint64_t ReadPauses = 0;
  size_t OpenConnections = 0;
};

class Server {
public:
  /// \p Service outlives the server and takes every decoded upload.
  Server(ServerConfig C, IngestService &Service);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens, and starts the event thread. False + \p Error on
  /// any socket-layer failure.
  bool start(std::string &Error);
  /// Closes every connection and joins the event thread (idempotent).
  void stop();

  /// The bound port (the kernel's pick when Port was 0); 0 before
  /// start().
  uint16_t port() const { return BoundPort; }

  ServerStats stats() const;

private:
  struct Connection;

  void eventLoop();
  void acceptReady();
  void readReady(Connection &Conn);
  void writeReady(Connection &Conn);
  void handleFrame(Connection &Conn, Frame &F);
  void sendFrame(Connection &Conn, const Frame &F);
  /// REJECT + close-after-flush for a frame-level stream error.
  void failStream(Connection &Conn, WireStatus Status);
  void closeConnection(int Fd);
  void sweepIdle(uint64_t NowMs);
  void updateInterest(Connection &Conn);

  ServerConfig Cfg;
  IngestService &Service;

  int ListenFd = -1;
  int EpollFd = -1;
  int WakeFd = -1;
  uint16_t BoundPort = 0;
  std::atomic<bool> Stopping{false};
  std::thread EventThread;

  /// Owned by the event thread; the map itself is only touched there.
  std::map<int, std::unique_ptr<Connection>> Connections;

  mutable std::mutex StatsMu;
  ServerStats Stats;
};

} // namespace collectd
} // namespace pp

#endif // PP_COLLECTD_SERVER_H
