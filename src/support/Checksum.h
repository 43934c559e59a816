//===- support/Checksum.h - CRC32 checksums --------------------*- C++ -*-===//
///
/// \file
/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) for integrity
/// trailers on persisted binary data. The on-disk run cache appends a CRC
/// of the whole payload so a reader can reject torn, truncated, or
/// bit-rotted files before parsing a single length field.
///
/// Two loops compute the same remainder. On an x86 CPU with PCLMULQDQ and
/// SSE4.1 (asked once, at the first call), crc32 folds every whole 16-byte
/// block of an input of at least 64 bytes with carry-less multiplies and
/// hands the tail to the sliced loop. Shorter inputs, and every input on
/// other CPUs, run the portable slicing-by-8 loop alone.
///
//===----------------------------------------------------------------------===//

#ifndef PP_SUPPORT_CHECKSUM_H
#define PP_SUPPORT_CHECKSUM_H

#include <cstddef>
#include <cstdint>

namespace pp {

/// Returns the CRC32 of \p Size bytes at \p Data. \p Seed allows
/// incremental computation: pass a previous result to continue it over a
/// subsequent chunk; 0 for a fresh checksum.
uint32_t crc32(const uint8_t *Data, size_t Size, uint32_t Seed = 0);

namespace detail {

/// The portable slicing-by-8 loop alone, with crc32's contract. crc32
/// runs it for short inputs, tails and CPUs without carry-less multiply;
/// it is declared here so tests can hold both paths to one oracle on any
/// host.
uint32_t crc32Sliced(const uint8_t *Data, size_t Size, uint32_t Seed = 0);

} // namespace detail

} // namespace pp

#endif // PP_SUPPORT_CHECKSUM_H
