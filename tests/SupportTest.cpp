//===- tests/SupportTest.cpp - support library tests -------------------------===//

#include "support/Checksum.h"
#include "support/Format.h"
#include "support/Prng.h"
#include "support/TableWriter.h"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

using namespace pp;

TEST(Format, ParseUint64Strict) {
  uint64_t Value = 77;
  EXPECT_TRUE(parseUint64("0", Value));
  EXPECT_EQ(Value, 0u);
  EXPECT_TRUE(parseUint64("18446744073709551615", Value));
  EXPECT_EQ(Value, UINT64_MAX);

  // Rejections leave the output untouched.
  Value = 77;
  EXPECT_FALSE(parseUint64("", Value));
  EXPECT_FALSE(parseUint64("max", Value));
  EXPECT_FALSE(parseUint64("12x", Value));
  EXPECT_FALSE(parseUint64(" 12", Value));
  EXPECT_FALSE(parseUint64("-1", Value));
  EXPECT_FALSE(parseUint64("18446744073709551616", Value)) << "overflow";
  EXPECT_EQ(Value, 77u);
}

TEST(Checksum, Crc32KnownVectors) {
  // The IEEE 802.3 check value: crc32("123456789") == 0xCBF43926.
  const uint8_t Digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(Digits, sizeof(Digits)), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);

  // Seeded continuation equals one-shot over the concatenation.
  uint32_t Split = crc32(Digits + 4, 5, crc32(Digits, 4));
  EXPECT_EQ(Split, 0xCBF43926u);

  // Any single-bit flip changes the checksum.
  uint8_t Flipped[sizeof(Digits)];
  for (size_t Byte = 0; Byte != sizeof(Digits); ++Byte)
    for (unsigned Bit = 0; Bit != 8; ++Bit) {
      std::memcpy(Flipped, Digits, sizeof(Digits));
      Flipped[Byte] ^= uint8_t(1) << Bit;
      EXPECT_NE(crc32(Flipped, sizeof(Flipped)), 0xCBF43926u);
    }
}

namespace {

/// The textbook bytewise CRC32, kept as the oracle the sliced
/// implementation must match bit for bit.
uint32_t referenceCrc32(const uint8_t *Data, size_t Size, uint32_t Seed) {
  uint32_t Crc = ~Seed;
  for (size_t Index = 0; Index != Size; ++Index) {
    Crc ^= Data[Index];
    for (unsigned Bit = 0; Bit != 8; ++Bit)
      Crc = (Crc >> 1) ^ ((Crc & 1) ? 0xedb88320u : 0);
  }
  return ~Crc;
}

/// Deterministic pseudo-random bytes (a 64-bit LCG's high byte).
std::vector<uint8_t> noiseBytes(size_t Size) {
  std::vector<uint8_t> Bytes(Size);
  uint64_t State = 0x9e3779b97f4a7c15ull;
  for (uint8_t &Byte : Bytes) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    Byte = uint8_t(State >> 56);
  }
  return Bytes;
}

} // namespace

TEST(Checksum, Crc32MatchesBytewiseReference) {
  // crc32 (which folds with carry-less multiply from 64 bytes on where
  // the CPU can) and the portable sliced loop must both equal the oracle,
  // whichever of them this host runs.
  using CrcFn = uint32_t (*)(const uint8_t *, size_t, uint32_t);
  const std::pair<const char *, CrcFn> Paths[] = {
      {"crc32", &crc32}, {"sliced", &detail::crc32Sliced}};

  constexpr size_t MiB = size_t(1) << 20;
  // Sixteen spare bytes in front so every length runs at every alignment
  // of the word and 16-byte vector loads.
  constexpr size_t Offsets = 16;
  std::vector<uint8_t> Buffer = noiseBytes(MiB + Offsets);
  std::vector<size_t> Lengths;
  for (size_t Length = 0; Length <= 300; ++Length)
    Lengths.push_back(Length);
  Lengths.push_back(4097);
  Lengths.push_back(MiB);
  for (size_t Offset = 0; Offset != Offsets; ++Offset)
    for (size_t Length : Lengths)
      for (uint32_t Seed : {0u, 0xdeadbeefu}) {
        const uint8_t *Data = Buffer.data() + Offset;
        uint32_t Want = referenceCrc32(Data, Length, Seed);
        for (const auto &[Name, Crc] : Paths)
          EXPECT_EQ(Crc(Data, Length, Seed), Want)
              << Name << ", offset " << Offset << " length " << Length
              << " seed " << Seed;
      }

  // Seeded continuation split at every position of a 160-byte run: the
  // splits cross several 8-byte boundaries, so the continuation enters
  // the sliced loop mid-word and the bytewise tail hands it a partial
  // word, and either part may fall short of the 64 bytes the carry-less
  // fold starts at or pass them with a tail.
  constexpr size_t SplitLength = 160;
  for (size_t Offset = 0; Offset != Offsets; ++Offset) {
    const uint8_t *Data = Buffer.data() + Offset;
    uint32_t Whole = referenceCrc32(Data, SplitLength, 0);
    for (size_t Split = 0; Split <= SplitLength; ++Split)
      for (const auto &[Name, Crc] : Paths)
        EXPECT_EQ(Crc(Data + Split, SplitLength - Split, Crc(Data, Split, 0)),
                  Whole)
            << Name << ", offset " << Offset << " split " << Split;
  }
}

TEST(Format, FormatString) {
  EXPECT_EQ(formatString("x=%d y=%s", 42, "hi"), "x=42 y=hi");
  EXPECT_EQ(formatString("%s", ""), "");
}

TEST(Format, FormatEng) {
  EXPECT_EQ(formatEng(0), "0");
  EXPECT_EQ(formatEng(99999), "99999");
  EXPECT_EQ(formatEng(11000000), "1.1e7");
  EXPECT_EQ(formatEng(210000000), "2.1e8");
  EXPECT_EQ(formatEng(-11000000), "-1.1e7");
}

TEST(Format, FormatPercent) {
  EXPECT_EQ(formatPercent(1, 2), "50.0%");
  EXPECT_EQ(formatPercent(1, 0), "0.0%");
  EXPECT_EQ(formatPercent(0, 100), "0.0%");
}

TEST(Format, FormatRatio) {
  EXPECT_EQ(formatRatio(3, 2), "1.50");
  EXPECT_EQ(formatRatio(3, 0), "-");
}

TEST(TableWriter, AlignsColumns) {
  TableWriter Table;
  Table.setHeader({"Benchmark", "Time"});
  Table.addRow({"go", "850.9"});
  Table.addSeparator();
  Table.addRow({"lisp-like", "1.0"});
  std::string Out = Table.render();
  // Header present, separator lines of dashes, right-aligned second column.
  EXPECT_NE(Out.find("Benchmark"), std::string::npos);
  EXPECT_NE(Out.find("go         850.9"), std::string::npos);
  EXPECT_NE(Out.find("lisp-like    1.0"), std::string::npos);
  EXPECT_EQ(Table.numRows(), 2u);
}

TEST(Prng, Deterministic) {
  Prng A(123), B(123), C(124);
  for (int Round = 0; Round != 100; ++Round) {
    uint64_t V = A.next();
    EXPECT_EQ(V, B.next());
  }
  // Different seeds diverge (overwhelmingly likely on the first draw).
  EXPECT_NE(Prng(123).next(), C.next());
}

TEST(Prng, BoundsRespected) {
  Prng R(7);
  for (int Round = 0; Round != 1000; ++Round) {
    EXPECT_LT(R.nextBelow(17), 17u);
    int64_t V = R.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Prng, RoughlyUniform) {
  Prng R(99);
  int Counts[10] = {};
  const int Draws = 100000;
  for (int Round = 0; Round != Draws; ++Round)
    ++Counts[R.nextBelow(10)];
  for (int Bucket = 0; Bucket != 10; ++Bucket) {
    EXPECT_GT(Counts[Bucket], Draws / 10 - Draws / 50);
    EXPECT_LT(Counts[Bucket], Draws / 10 + Draws / 50);
  }
}
