//===- support/Checksum.cpp - CRC32 checksums --------------------------------===//
//
// Slicing-by-8: eight 256-entry tables let the loop fold eight input bytes
// per step with eight independent lookups instead of a serial chain of
// eight. Tables[0] is the classic bytewise table; Tables[K][I] is the
// CRC of byte I followed by K zero bytes, so XOR-ing one lookup per byte
// position yields the same remainder the bytewise loop would.
//
// Carry-less multiply (x86 PCLMULQDQ): four 128-bit lanes each absorb a
// 64-byte stride per step by multiplying the lane by x^512 mod P (as two
// 64-bit halves) and XOR-ing in the next block; the lanes are then folded
// into one, the 128 bits are reduced to 64, and a Barrett reduction gives
// the 32-bit remainder. This is the scheme of Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
// (Intel, 2009), with its constants for the bit-reflected 0xEDB88320.
//
//===----------------------------------------------------------------------===//

#include "support/Checksum.h"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PP_CRC32_CLMUL 1
#endif

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

#if PP_CRC32_CLMUL

/// Inputs shorter than this run the sliced loop alone: the fold needs
/// four 16-byte lanes to start.
constexpr size_t ClmulMinBytes = 64;

// Each constant is x^N mod P, bit-reflected and shifted left by one, for
// the N named beside it. A pair folds a lane's low and high 64 bits.
alignas(16) constexpr uint64_t FoldBy4[2] = {
    0x154442bd4, // x^(4*128+32)
    0x1c6e41596, // x^(4*128-32)
};
alignas(16) constexpr uint64_t FoldBy1[2] = {
    0x1751997d0, // x^(128+32)
    0x0ccaa009e, // x^(128-32)
};
alignas(16) constexpr uint64_t FoldTo64[2] = {
    0x163cd6124, // x^64: the 96 bits left after the lanes, to 64
    0,
};
alignas(16) constexpr uint64_t BarrettConstants[2] = {
    0x1db710641, // P itself, reflected
    0x1f7011641, // mu = floor(x^64 / P), reflected
};

/// The CPU can run clmulFold. Asked once.
bool haveClmul() {
  static const bool Have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return Have;
}

/// The code below runs only where haveClmul() said yes.
#define PP_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

PP_CLMUL_TARGET inline __m128i load16(const uint8_t *P) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i *>(P));
}

/// Lane * K: the low half times K's low constant XOR the high half times
/// K's high constant, which moves the lane's bits the fold distance on.
PP_CLMUL_TARGET inline __m128i foldLane(__m128i Lane, __m128i K) {
  return _mm_xor_si128(_mm_clmulepi64_si128(Lane, K, 0x00),
                       _mm_clmulepi64_si128(Lane, K, 0x11));
}

/// Continues the running (inverted) remainder \p Crc over \p Size bytes
/// at \p Data, where \p Size is at least ClmulMinBytes and a multiple of
/// 16; returns the running remainder.
PP_CLMUL_TARGET uint32_t clmulFold(const uint8_t *Data, size_t Size,
                                   uint32_t Crc) {
  __m128i X0 = _mm_xor_si128(load16(Data), _mm_cvtsi32_si128(int(Crc)));
  __m128i X1 = load16(Data + 16);
  __m128i X2 = load16(Data + 32);
  __m128i X3 = load16(Data + 48);
  Data += 64;
  Size -= 64;

  __m128i K = _mm_load_si128(reinterpret_cast<const __m128i *>(FoldBy4));
  for (; Size >= 64; Data += 64, Size -= 64) {
    X0 = _mm_xor_si128(foldLane(X0, K), load16(Data));
    X1 = _mm_xor_si128(foldLane(X1, K), load16(Data + 16));
    X2 = _mm_xor_si128(foldLane(X2, K), load16(Data + 32));
    X3 = _mm_xor_si128(foldLane(X3, K), load16(Data + 48));
  }

  // Four lanes into one, then any remaining 16-byte blocks into it.
  K = _mm_load_si128(reinterpret_cast<const __m128i *>(FoldBy1));
  __m128i X = _mm_xor_si128(foldLane(X0, K), X1);
  X = _mm_xor_si128(foldLane(X, K), X2);
  X = _mm_xor_si128(foldLane(X, K), X3);
  for (; Size >= 16; Data += 16, Size -= 16)
    X = _mm_xor_si128(foldLane(X, K), load16(Data));

  // 128 bits to 64: the low half times x^(128-32), XOR the high half;
  // then the low 32 bits times x^64, XOR the rest.
  const __m128i Low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  X = _mm_xor_si128(_mm_srli_si128(X, 8), _mm_clmulepi64_si128(X, K, 0x10));
  K = _mm_loadl_epi64(reinterpret_cast<const __m128i *>(FoldTo64));
  X = _mm_xor_si128(_mm_srli_si128(X, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(X, Low32), K, 0x00));

  // Barrett reduction of the 64 bits left to the 32-bit remainder.
  K = _mm_load_si128(reinterpret_cast<const __m128i *>(BarrettConstants));
  __m128i T = _mm_clmulepi64_si128(_mm_and_si128(X, Low32), K, 0x10);
  T = _mm_clmulepi64_si128(_mm_and_si128(T, Low32), K, 0x00);
  return uint32_t(_mm_extract_epi32(_mm_xor_si128(X, T), 1));
}

#endif // PP_CRC32_CLMUL

} // namespace

uint32_t pp::crc32(const uint8_t *Data, size_t Size, uint32_t Seed) {
#if PP_CRC32_CLMUL
  if (Size >= ClmulMinBytes && haveClmul()) {
    size_t Folded = Size & ~size_t(15);
    uint32_t Crc = ~clmulFold(Data, Folded, ~Seed);
    return detail::crc32Sliced(Data + Folded, Size - Folded, Crc);
  }
#endif
  return detail::crc32Sliced(Data, Size, Seed);
}

uint32_t pp::detail::crc32Sliced(const uint8_t *Data, size_t Size,
                                 uint32_t Seed) {
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
