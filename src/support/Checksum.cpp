//===- support/Checksum.cpp - CRC32 checksums --------------------------------===//
//
// Slicing-by-8: eight 256-entry tables let the loop fold eight input bytes
// per step with eight independent lookups instead of a serial chain of
// eight. Tables[0] is the classic bytewise table; Tables[K][I] is the
// CRC of byte I followed by K zero bytes, so XOR-ing one lookup per byte
// position yields the same remainder the bytewise loop would.
//
//===----------------------------------------------------------------------===//

#include "support/Checksum.h"

#include <array>

using namespace pp;

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables makeCrcTables() {
  CrcTables Tables{};
  for (uint32_t Index = 0; Index != 256; ++Index) {
    uint32_t Value = Index;
    for (unsigned Bit = 0; Bit != 8; ++Bit)
      Value = (Value >> 1) ^ ((Value & 1) ? 0xedb88320u : 0);
    Tables[0][Index] = Value;
  }
  for (unsigned Slice = 1; Slice != 8; ++Slice)
    for (uint32_t Index = 0; Index != 256; ++Index) {
      uint32_t Prev = Tables[Slice - 1][Index];
      Tables[Slice][Index] = (Prev >> 8) ^ Tables[0][Prev & 0xff];
    }
  return Tables;
}

constexpr CrcTables Tables = makeCrcTables();

/// The little-endian 32-bit word at \p P (any alignment; compiles to one
/// load on little-endian hosts).
inline uint32_t load32(const uint8_t *P) {
  return uint32_t(P[0]) | uint32_t(P[1]) << 8 | uint32_t(P[2]) << 16 |
         uint32_t(P[3]) << 24;
}

} // namespace

uint32_t pp::crc32(const uint8_t *Data, size_t Size, uint32_t Seed) {
  uint32_t Crc = ~Seed;
  for (; Size >= 8; Data += 8, Size -= 8) {
    uint32_t Low = load32(Data) ^ Crc;
    uint32_t High = load32(Data + 4);
    Crc = Tables[7][Low & 0xff] ^ Tables[6][(Low >> 8) & 0xff] ^
          Tables[5][(Low >> 16) & 0xff] ^ Tables[4][Low >> 24] ^
          Tables[3][High & 0xff] ^ Tables[2][(High >> 8) & 0xff] ^
          Tables[1][(High >> 16) & 0xff] ^ Tables[0][High >> 24];
  }
  for (; Size != 0; ++Data, --Size)
    Crc = (Crc >> 8) ^ Tables[0][(Crc ^ *Data) & 0xff];
  return ~Crc;
}
