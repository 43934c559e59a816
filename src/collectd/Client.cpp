//===- collectd/Client.cpp - Blocking client of the wire protocol -------------===//

#include "collectd/Client.h"

#include "support/Format.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

using namespace pp;
using namespace pp::collectd;

// The helpers make system calls only: replay() runs them in forked
// children.
namespace {

/// A connected socket to \p Host:\p Port with every client option set;
/// -1 with errno set on failure.
int openSocket(const char *Host, uint16_t Port, int ReceiveBufferBytes) {
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (inet_pton(AF_INET, Host, &Addr.sin_addr) != 1) {
    errno = EINVAL;
    return -1;
  }
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  if (ReceiveBufferBytes > 0)
    setsockopt(Fd, SOL_SOCKET, SO_RCVBUF, &ReceiveBufferBytes,
               sizeof(ReceiveBufferBytes));
  timeval Timeout{ReceiveTimeoutSeconds, 0};
  setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  int One = 1;
  setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  if (::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                sizeof(Addr)) == 0)
    return Fd;
  int Saved = errno;
  ::close(Fd);
  errno = Saved;
  return -1;
}

/// Writes all \p Size bytes through interrupted and short writes; a
/// closed peer is an error (MSG_NOSIGNAL), not a SIGPIPE.
bool sendAll(int Fd, const uint8_t *Bytes, size_t Size) {
  while (Size) {
    ssize_t Got = ::send(Fd, Bytes, Size, MSG_NOSIGNAL);
    if (Got < 0 && errno != EINTR)
      return false;
    if (Got > 0) {
      Bytes += Got;
      Size -= static_cast<size_t>(Got);
    }
  }
  return true;
}

/// recv that retries EINTR.
ssize_t receiveSome(int Fd, uint8_t *Buffer, size_t Size) {
  ssize_t Got;
  do
    Got = ::recv(Fd, Buffer, Size, 0);
  while (Got < 0 && errno == EINTR);
  return Got;
}

} // namespace

bool Client::connect(const std::string &Host, uint16_t Port,
                     int ReceiveBufferBytes) {
  close();
  Fd = openSocket(Host.c_str(), Port, ReceiveBufferBytes);
  return Fd >= 0 || fail(formatString("connect %s:%u: %s", Host.c_str(),
                                      unsigned(Port), strerror(errno)));
}

bool Client::sendBytes(const std::vector<uint8_t> &Bytes) {
  return sendAll(Fd, Bytes.data(), Bytes.size()) ||
         fail(std::string("send: ") + strerror(errno));
}

WireStatus Client::receive(Frame &Out) {
  for (;;) {
    WireStatus Status = Decoder.next(Out);
    if (Status != WireStatus::NeedMore) {
      if (Status != WireStatus::Ok)
        fail(formatString("stream error: %s", wireStatusName(Status)));
      return Status;
    }
    uint8_t Chunk[64 * 1024];
    ssize_t Got = receiveSome(Fd, Chunk, sizeof(Chunk));
    if (Got == 0) {
      PeerClosed = true;
      fail("the server closed the connection");
      return WireStatus::NeedMore;
    }
    if (Got < 0) {
      fail(errno == EAGAIN
               ? formatString("no reply within %d s", ReceiveTimeoutSeconds)
               : std::string("recv: ") + strerror(errno));
      return WireStatus::NeedMore;
    }
    Decoder.feed(Chunk, static_cast<size_t>(Got));
  }
}

bool Client::hello(const std::string &Tenant, const std::string &Acquisition) {
  Frame F;
  F.Type = FrameType::Hello;
  F.Tenant = Tenant;
  F.Acquisition = Acquisition;
  if (!send(F) || receive(F) != WireStatus::Ok)
    return false;
  return F.Type == FrameType::Ack || fail("hello rejected: " + F.Message);
}

void Client::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
  PeerClosed = false;
  Decoder = FrameDecoder();
}

bool Client::fail(std::string Message) {
  Error = std::move(Message);
  return false;
}

std::vector<uint8_t> collectd::encodeSession(const std::string &Tenant,
                                             const std::string &Acquisition,
                                             std::span<const Upload> Uploads) {
  Frame F;
  F.Type = FrameType::Hello;
  F.Tenant = Tenant;
  F.Acquisition = Acquisition;
  std::vector<uint8_t> Session = encodeFrame(F);
  F.Type = FrameType::Upload;
  for (const Upload &U : Uploads) {
    F.Window = U.Window;
    F.Artifact = U.Bytes;
    std::vector<uint8_t> Bytes = encodeFrame(F);
    Session.insert(Session.end(), Bytes.begin(), Bytes.end());
    ++F.Serial;
  }
  return Session;
}

int collectd::replay(const char *Host, uint16_t Port, const uint8_t *Bytes,
                     size_t Size) {
  int Fd = openSocket(Host, Port, /*ReceiveBufferBytes=*/0);
  if (Fd < 0)
    return 1;
  int Status = 2;
  if (sendAll(Fd, Bytes, Size)) {
    ::shutdown(Fd, SHUT_WR);
    uint8_t Sink[4096];
    ssize_t Got;
    while ((Got = receiveSome(Fd, Sink, sizeof(Sink))) > 0)
      ;
    Status = Got < 0 ? 3 : 0;
  }
  ::close(Fd);
  return Status;
}
