//===- collectd/Client.h - Blocking client of the wire protocol -*- C++ -*-===//
///
/// \file
/// The one client of the framed protocol in collectd/Wire.h: a blocking
/// TCP connection that writes whole frames and reads whole frames.
/// pp-collectd --connect, the loopback bench and the server tests all
/// talk to a Server through it.
///
/// Every socket it opens is close-on-exec, sets TCP_NODELAY (a frame is
/// a request; holding it back to coalesce only adds latency), and has a
/// ReceiveTimeoutSeconds receive timeout, so a stalled server fails the
/// caller instead of hanging it.
///
//===----------------------------------------------------------------------===//

#ifndef PP_COLLECTD_CLIENT_H
#define PP_COLLECTD_CLIENT_H

#include "collectd/Wire.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pp {
namespace collectd {

/// How long a client waits for the server's next bytes.
constexpr int ReceiveTimeoutSeconds = 30;

class Client {
public:
  Client() = default;
  ~Client() { close(); }

  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Connects to the dotted-quad \p Host on \p Port. \p ReceiveBufferBytes
  /// > 0 sets SO_RCVBUF first (a small one makes the kernel push back on
  /// the server early); 0 keeps the kernel's default.
  bool connect(const std::string &Host, uint16_t Port,
               int ReceiveBufferBytes = 0);

  bool send(const Frame &F) { return sendBytes(encodeFrame(F)); }
  /// Writes raw bytes, framed or not (the protocol tests send garbage).
  bool sendBytes(const std::vector<uint8_t> &Bytes);

  /// Reads the next frame into \p Out. Ok fills it; a fatal decoder
  /// status is returned as is; NeedMore means the stream ended first,
  /// and peerClosed() tells a clean close by the server from a timeout
  /// or a socket error.
  WireStatus receive(Frame &Out);

  /// Sends HELLO; true when the server ACKs it.
  bool hello(const std::string &Tenant, const std::string &Acquisition);

  bool peerClosed() const { return PeerClosed; }
  /// Why the last failed call failed.
  const std::string &error() const { return Error; }

  void close();

private:
  bool fail(std::string Message);

  int Fd = -1;
  bool PeerClosed = false;
  std::string Error;
  FrameDecoder Decoder;
};

/// One whole client session as bytes, for replay(): HELLO for \p Tenant
/// and \p Acquisition, then an UPLOAD per upload with serials 0, 1, ...
std::vector<uint8_t> encodeSession(const std::string &Tenant,
                                   const std::string &Acquisition,
                                   std::span<const Upload> Uploads);

/// Sends \p Size pre-encoded bytes to the dotted-quad \p Host on \p Port
/// over a socket set up as Client's, half-closes, and drains the replies
/// to EOF. It makes system calls only — no allocation, no locks — so a
/// forked child of a threaded parent may call it. Returns 0, or the step
/// that failed: 1 connect, 2 send, 3 receive.
int replay(const char *Host, uint16_t Port, const uint8_t *Bytes,
           size_t Size);

} // namespace collectd
} // namespace pp

#endif // PP_COLLECTD_CLIENT_H
