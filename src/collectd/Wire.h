//===- collectd/Wire.h - Framed upload protocol ----------------*- C++ -*-===//
///
/// \file
/// The collector's wire protocol: how a fleet client talks to a
/// pp-collectd socket front end. Everything that crosses the socket is a
/// *frame* — a fixed header, a typed payload, and a CRC32 trailer:
///
///   offset  size  field
///   0       4     magic "PPWF"
///   4       1     wire version (WireVersion)
///   5       1     frame type (FrameType)
///   6       4     payload length, little endian
///   10      len   payload (per-type layout below)
///   10+len  4     CRC32 of bytes [0, 10+len), little endian
///
/// Payloads reuse the repository's little-endian primitives
/// (support/BinaryIO.h: u64s, u64-length-prefixed strings/bytes):
///
///   HELLO   u64 protocol; str tenant; str acquisition
///   UPLOAD  u64 serial; u64 window; bytes artifact (.ppa)
///   ACK     u64 serial; str text           (query answers ride in text)
///   REJECT  u64 serial; u8 reason (RejectReason); u8 decode
///           (DecodeStatus, below NumDecodeStatuses); u8 wire
///           (WireStatus); str message
///   QUERY   u64 serial; u8 kind (QueryKind); u64 window; u64 limit
///
/// Trust model: frames arrive from the network and are as untrusted as a
/// .ppa file on disk. The decoder is incremental (bytes arrive in
/// whatever chunks the kernel delivers) and fully bounds-checked in the
/// profdb DecodeStatus style: every verdict is a typed WireStatus, a
/// length field is validated against MaxPayloadBytes *before* any
/// allocation (a giant-length lie costs ten buffered bytes, not
/// gigabytes), the CRC gates payload parsing, and a payload that decodes
/// but leaves unexplained bytes is TrailingBytes, never silently
/// accepted. A frame-level error poisons the stream — after corruption
/// the framing itself cannot be trusted, so the server replies with a
/// typed REJECT and closes.
///
//===----------------------------------------------------------------------===//

#ifndef PP_COLLECTD_WIRE_H
#define PP_COLLECTD_WIRE_H

#include "collectd/Ingest.h"
#include "profdb/Artifact.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pp {
namespace collectd {

/// Frame header magic: "PPWF" (path-profile wire frame).
constexpr uint8_t WireMagic[4] = {'P', 'P', 'W', 'F'};
/// Bumped on any layout change; a mismatched peer is rejected typed.
constexpr uint8_t WireVersion = 1;
/// Fixed bytes before the payload (magic + version + type + length).
constexpr size_t WireHeaderBytes = 10;
/// CRC32 trailer.
constexpr size_t WireTrailerBytes = 4;
/// Default ceiling on one frame's payload. Large enough for any honest
/// artifact upload, small enough that a malicious length field cannot
/// balloon a connection's memory.
constexpr size_t DefaultMaxPayloadBytes = 16u << 20;

enum class FrameType : uint8_t {
  Hello = 1,  ///< client -> server, once, first
  Upload = 2, ///< client -> server: one .ppa artifact for a window
  Ack = 3,    ///< server -> client: accepted (query answers ride here)
  Reject = 4, ///< server -> client: typed refusal
  Query = 5,  ///< client -> server: render a window
};

/// What a QUERY frame asks of the folded window.
enum class QueryKind : uint8_t {
  TopPaths = 1,
  TopProcs = 2,
  CctStats = 3,
};

/// The typed verdict of the incremental decoder. Everything except Ok
/// and NeedMore is fatal to the stream: framing after a corrupt frame
/// cannot be re-synchronised and the connection must close.
enum class WireStatus : unsigned {
  Ok = 0,
  /// Not an error: the buffered bytes do not yet hold a whole frame.
  NeedMore,
  BadMagic,
  BadVersion,
  /// The type byte names no known frame.
  BadType,
  /// The length field exceeds the decoder's payload ceiling.
  FrameTooLarge,
  /// The CRC32 trailer does not match the header + payload bytes.
  BadChecksum,
  /// The payload structure is inconsistent with its frame type.
  Malformed,
  /// The payload decodes but is followed by unexplained bytes.
  TrailingBytes,
};

/// Human-readable name ("ok", "need-more", "bad-magic", ...).
const char *wireStatusName(WireStatus S);

/// One decoded (or to-be-encoded) frame. Only the fields of its Type are
/// meaningful; the rest stay at their defaults.
struct Frame {
  FrameType Type = FrameType::Hello;
  /// Correlation id echoed by ACK/REJECT (Upload/Ack/Reject/Query).
  uint64_t Serial = 0;

  // Hello
  uint64_t Protocol = WireVersion;
  std::string Tenant;
  std::string Acquisition;

  // Upload
  uint64_t Window = 0;
  std::vector<uint8_t> Artifact;

  // Ack
  std::string Text;

  // Reject
  RejectReason Reason = RejectReason::None;
  profdb::DecodeStatus Decode = profdb::DecodeStatus::Ok;
  WireStatus Wire = WireStatus::Ok;
  std::string Message;

  // Query
  QueryKind Kind = QueryKind::TopPaths;
  uint64_t Limit = 0;
};

/// Serialises \p F into one complete frame (header + payload + CRC).
std::vector<uint8_t> encodeFrame(const Frame &F);

/// Incremental, bounds-checked frame decoder. Feed it whatever chunk the
/// socket produced; next() yields complete frames in order. The buffer
/// is bounded: a frame can hold at most MaxPayloadBytes of payload
/// (checked from the header, before the payload is buffered or any
/// allocation sized from it), so buffered() never exceeds one maximal
/// frame plus the last fed chunk.
class FrameDecoder {
public:
  explicit FrameDecoder(size_t MaxPayloadBytes = DefaultMaxPayloadBytes)
      : MaxPayload(MaxPayloadBytes) {}

  /// Appends \p Size raw bytes to the stream.
  void feed(const uint8_t *Data, size_t Size);
  void feed(const std::vector<uint8_t> &Bytes) {
    feed(Bytes.data(), Bytes.size());
  }

  /// Extracts the next complete frame. Ok fills \p Out and consumes the
  /// frame's bytes; NeedMore leaves the buffer for a later feed; any
  /// other status is a fatal stream error and leaves the offending bytes
  /// unconsumed (the caller should reject and close).
  WireStatus next(Frame &Out);

  /// Bytes fed but not yet consumed by decoded frames.
  size_t buffered() const { return Buffer.size() - Start; }

private:
  size_t MaxPayload;
  std::vector<uint8_t> Buffer;
  /// Consumed prefix of Buffer; compacted opportunistically so the
  /// buffer's capacity tracks the live bytes, not stream history.
  size_t Start = 0;
};

} // namespace collectd
} // namespace pp

#endif // PP_COLLECTD_WIRE_H
