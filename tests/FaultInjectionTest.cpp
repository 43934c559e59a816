//===- tests/FaultInjectionTest.cpp - driver hardening under faults -------------===//
//
// The hardening contract, proven on real faults: no corruption of a cache
// file — bit flips, truncations, or adversarial stomps with a fixed-up
// checksum — may crash the decoder or be served as a cached result; a
// corrupt or truncated file on disk degrades to a re-execution that
// reproduces the clean outcome; and a run failed mid-suite yields one
// structured error outcome while every other submitted run completes
// untouched. (An unwritable cache directory is DriverTest's.)
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "profdb/Artifact.h"
#include "profdb/Store.h"
#include "support/Checksum.h"
#include "workloads/Spec.h"

#include "CraftedTrees.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace pp;
using namespace pp::driver;

namespace {

RunPlan makePlan(const std::string &Workload, prof::Mode M) {
  RunPlan Plan;
  Plan.Workload = Workload;
  Plan.Options.Config.M = M;
  return Plan;
}

std::string makeTempDir() {
  char Template[] = "/tmp/pp-fault-test-XXXXXX";
  const char *Dir = mkdtemp(Template);
  EXPECT_NE(Dir, nullptr);
  return Dir ? Dir : "";
}

void removeDir(const std::string &Dir) {
  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

/// The path of the one .ppo file in \p Dir.
std::string onlyCacheFile(const std::string &Dir) {
  std::string Cmd = "ls " + Dir + "/*.ppo";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe)
    return "";
  char PathBuf[256] = {};
  if (!std::fgets(PathBuf, sizeof(PathBuf), Pipe))
    PathBuf[0] = 0;
  pclose(Pipe);
  std::string Path(PathBuf);
  while (!Path.empty() && (Path.back() == '\n' || Path.back() == ' '))
    Path.pop_back();
  return Path;
}

/// Number of .ppo files in \p Dir (the on-disk cache population).
size_t countCacheFiles(const std::string &Dir) {
  std::string Cmd = "ls " + Dir + "/*.ppo 2>/dev/null | wc -l";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe)
    return 0;
  unsigned long Count = 0;
  if (std::fscanf(Pipe, "%lu", &Count) != 1)
    Count = 0;
  pclose(Pipe);
  return Count;
}

/// The consumer-visible core of an outcome: a degraded-then-recovered run
/// must reproduce exactly what the clean run produced.
void expectSameMeasurement(const prof::RunOutcome &A,
                           const prof::RunOutcome &B) {
  EXPECT_EQ(A.Result.Ok, B.Result.Ok);
  EXPECT_EQ(A.Result.ExitValue, B.Result.ExitValue);
  EXPECT_EQ(A.Result.ExecutedInsts, B.Result.ExecutedInsts);
  EXPECT_EQ(A.Totals, B.Totals);
}

//===----------------------------------------------------------------------===//
// Decoder corruption sweep
//===----------------------------------------------------------------------===//

/// The run-cache entry of \p Run under \p Plan's identity, fingerprint
/// "fp".
std::vector<uint8_t> entryOf(const RunPlan &Plan, const prof::RunOutcome &Run) {
  RunKey Key = RunKey::of(Plan);
  return profdb::encodeRunEntry(Run, "fp", Key.Workload, Key.Scale,
                                Key.Schema);
}

TEST(FaultSweepTest, NoCorruptionCrashesOrIsAccepted) {
  Driver D(/*DiskDir=*/"", /*Threads=*/1);
  RunPlan Plan = makePlan("130.li", prof::Mode::ContextFlow);
  OutcomePtr Run = D.run(Plan);
  ASSERT_TRUE(Run && Run->Result.Ok && Run->Instr.M);

  const std::vector<uint8_t> Bytes = entryOf(Plan, *Run);
  ASSERT_GT(Bytes.size(), 16u);
  {
    prof::RunOutcome Out;
    ASSERT_EQ(profdb::decodeRunEntry(Bytes, "fp", Out), DecodeStatus::Ok);
  }
  // The entry is the run's plain artifact (minus its has-run flag and
  // trailer) followed by the run section; where that section starts.
  const size_t RunSectionAt =
      profdb::encodeArtifact(profdb::artifactFromOutcome(
                                 *Run, *Run->Instr.M, "fp", Plan.Workload, 1,
                                 Plan.Options.Config))
          .size() -
      5;
  ASSERT_LT(RunSectionAt, Bytes.size() - 4);

  unsigned Corruptions = 0;

  // Sweep A: single-bit flips across the whole file, checksum left
  // stale. CRC32 detects every single-bit error, so each one must be
  // rejected — never crash, never decode.
  constexpr unsigned NumFlips = 160;
  for (unsigned I = 0; I != NumFlips; ++I) {
    std::vector<uint8_t> Flipped = Bytes;
    size_t Offset = size_t(I) * Flipped.size() / NumFlips;
    Flipped[Offset] ^= uint8_t(1) << (I % 8);
    prof::RunOutcome Out;
    DecodeStatus Status = profdb::decodeRunEntry(Flipped, "fp", Out);
    EXPECT_NE(Status, DecodeStatus::Ok)
        << "accepted a bit flip at offset " << Offset;
    ++Corruptions;
  }

  // Sweep B: truncations at every scale, from the empty file to one
  // missing byte.
  constexpr unsigned NumCuts = 60;
  for (unsigned I = 0; I != NumCuts; ++I) {
    size_t Cut = size_t(I) * Bytes.size() / NumCuts;
    std::vector<uint8_t> Truncated(Bytes.begin(), Bytes.begin() + Cut);
    prof::RunOutcome Out;
    DecodeStatus Status = profdb::decodeRunEntry(Truncated, "fp", Out);
    EXPECT_NE(Status, DecodeStatus::Ok) << "accepted " << Cut << " bytes";
    ++Corruptions;
  }

  // Sweep C: stomp 8-byte windows with 0xFF and *recompute* the
  // checksum trailer, deliberately defeating the CRC gate so every
  // interior length/count check gets exercised with the worst value a
  // field can hold (e.g. a string length of ~2^64). The decoder must
  // bound-check its way to a typed rejection — or, when the stomp only
  // hit metric payload, decode cleanly — without ever reading out of
  // bounds or attempting a pathological allocation. (ASan-built runs of
  // this test check the "no out-of-bounds" half mechanically.)
  // The run section is a small tail of the entry, so it gets its own
  // share of the stomps on top of the evenly spread ones.
  constexpr unsigned NumStomps = 100;
  constexpr unsigned NumRunSectionStomps = 40;
  const size_t Limit = Bytes.size() - 4; // keep the trailer's 4 bytes
  unsigned InRunSection = 0;
  for (unsigned I = 0; I != NumStomps + NumRunSectionStomps; ++I) {
    std::vector<uint8_t> Stomped = Bytes;
    size_t Offset =
        I < NumStomps
            ? size_t(I) * Limit / NumStomps
            : RunSectionAt +
                  size_t(I - NumStomps) * (Limit - RunSectionAt) /
                      NumRunSectionStomps;
    InRunSection += Offset >= RunSectionAt;
    for (size_t B = Offset; B != std::min(Offset + 8, Limit); ++B)
      Stomped[B] = 0xFF;
    uint32_t Crc = crc32(Stomped.data(), Stomped.size() - 4);
    for (unsigned B = 0; B != 4; ++B)
      Stomped[Stomped.size() - 4 + B] = uint8_t(Crc >> (8 * B));
    prof::RunOutcome Out;
    DecodeStatus Status = profdb::decodeRunEntry(Stomped, "fp", Out);
    EXPECT_NE(Status, DecodeStatus::BadChecksum)
        << "trailer fixup failed at offset " << Offset;
    ++Corruptions;
  }
  EXPECT_GE(InRunSection, NumRunSectionStomps);

  EXPECT_GE(Corruptions, 200u);
}

/// 130.li's Context+Flow+HW artifact (with a tree, no run section).
void makeLiArtifact(profdb::Artifact &A) {
  Driver D(/*DiskDir=*/"", /*Threads=*/1);
  RunPlan Plan = makePlan("130.li", prof::Mode::ContextFlowHw);
  OutcomePtr Run = D.run(Plan);
  ASSERT_TRUE(Run && Run->Result.Ok);
  auto Module = workloads::buildWorkload("130.li", 1);
  ASSERT_NE(Module, nullptr);
  A = profdb::artifactFromOutcome(*Run, *Module, "fault-fp", "130.li", 1,
                                  Plan.Options.Config);
  ASSERT_NE(A.Tree, nullptr);
}

// The same three-sweep harness, pointed at the profile repository's
// artifact decoder: artifacts are durable, travel between machines, and
// are therefore just as untrusted as cache files.
TEST(FaultSweepTest, NoArtifactCorruptionCrashesOrIsAccepted) {
  profdb::Artifact A;
  ASSERT_NO_FATAL_FAILURE(makeLiArtifact(A));
  const std::vector<uint8_t> Bytes = profdb::encodeArtifact(A);
  ASSERT_GT(Bytes.size(), 16u);
  {
    profdb::Artifact Out;
    ASSERT_EQ(profdb::decodeArtifact(Bytes, Out), profdb::DecodeStatus::Ok);
  }

  // Sweep A: single-bit flips with a stale checksum — CRC32 catches every
  // one of them.
  constexpr unsigned NumFlips = 160;
  for (unsigned I = 0; I != NumFlips; ++I) {
    std::vector<uint8_t> Flipped = Bytes;
    size_t Offset = size_t(I) * Flipped.size() / NumFlips;
    Flipped[Offset] ^= uint8_t(1) << (I % 8);
    profdb::Artifact Out;
    profdb::DecodeStatus Status = profdb::decodeArtifact(Flipped, Out);
    EXPECT_NE(Status, profdb::DecodeStatus::Ok)
        << "accepted a bit flip at offset " << Offset;
  }

  // Sweep B: truncations at every scale.
  constexpr unsigned NumCuts = 60;
  for (unsigned I = 0; I != NumCuts; ++I) {
    size_t Cut = size_t(I) * Bytes.size() / NumCuts;
    std::vector<uint8_t> Truncated(Bytes.begin(), Bytes.begin() + Cut);
    profdb::Artifact Out;
    EXPECT_NE(profdb::decodeArtifact(Truncated, Out),
              profdb::DecodeStatus::Ok)
        << "accepted " << Cut << " bytes";
  }

  // Sweep C: 0xFF stomps with a recomputed trailer, defeating the CRC so
  // the interior bounds checks face worst-case field values. Typed
  // rejection or a clean decode of stomped metric payload — never a
  // crash, never BadChecksum (the trailer is valid by construction).
  // Each stomp's verdict is pinned, one letter per stomp: O ok,
  // M bad-magic, V bad-version, T truncated, X malformed. A stomp that
  // lands on a path sum puts the record's sums out of ascending order,
  // which the tree reader refuses (stomps 46, 48, 50, 51, 64, 66, 79, 81,
  // 83 and 85). Stomp 40 writes all-ones over a later record's parent
  // index, which reads as a second root, and only record 0 may be one.
  constexpr unsigned NumStomps = 100;
  const std::string Pinned = "MVOTOTOTTTOXOOOOTTTTTXTTTOTTXXXTOOTOTTXTXTOOTOX"
                             "OXOXXOOOTXTXXOTOTXOXOOOTTTXXOTOTXOXOXOXOOOTTXTT"
                             "XTXTTX";
  ASSERT_EQ(Pinned.size(), NumStomps);
  auto PinnedStatus = [](char Letter) {
    switch (Letter) {
    case 'O':
      return profdb::DecodeStatus::Ok;
    case 'M':
      return profdb::DecodeStatus::BadMagic;
    case 'V':
      return profdb::DecodeStatus::BadVersion;
    case 'T':
      return profdb::DecodeStatus::Truncated;
    default:
      return profdb::DecodeStatus::Malformed;
    }
  };
  for (unsigned I = 0; I != NumStomps; ++I) {
    std::vector<uint8_t> Stomped = Bytes;
    size_t Limit = Stomped.size() - 4;
    size_t Offset = size_t(I) * Limit / NumStomps;
    for (size_t B = Offset; B != std::min(Offset + 8, Limit); ++B)
      Stomped[B] = 0xFF;
    uint32_t Crc = crc32(Stomped.data(), Stomped.size() - 4);
    for (unsigned B = 0; B != 4; ++B)
      Stomped[Stomped.size() - 4 + B] = uint8_t(Crc >> (8 * B));
    profdb::Artifact Out;
    profdb::DecodeStatus Status = profdb::decodeArtifact(Stomped, Out);
    EXPECT_EQ(Status, PinnedStatus(Pinned[I]))
        << "stomp " << I << " at offset " << Offset << ": "
        << profdb::decodeStatusName(Status) << ", pinned "
        << profdb::decodeStatusName(PinnedStatus(Pinned[I]));
  }

  // Trailing garbage after a valid payload is its own typed status.
  {
    std::vector<uint8_t> Extended = Bytes;
    std::vector<uint8_t> Payload(Bytes.begin(), Bytes.end() - 4);
    Payload.push_back(0xAB);
    uint32_t Crc = crc32(Payload.data(), Payload.size());
    Extended = Payload;
    for (unsigned B = 0; B != 4; ++B)
      Extended.push_back(uint8_t(Crc >> (8 * B)));
    profdb::Artifact Out;
    EXPECT_EQ(profdb::decodeArtifact(Extended, Out),
              profdb::DecodeStatus::TrailingBytes);
  }
}

// Trees no CallingContextTree can hold, and bytes no tree writes, under a
// valid CRC. The decoder reads the whole tree before it judges its
// structure, so a misshapen tree that is also cut short reads as
// Truncated. A slot target or path cell the tree could not keep is
// refused, not dropped.
TEST(FaultSweepTest, CraftedTreesDecodeToTheirVerdicts) {
  profdb::Artifact A;
  ASSERT_NO_FATAL_FAILURE(makeLiArtifact(A));
  ASSERT_GT(A.Tree->numRecords(), 2u);
  using SlotKind = cct::CallRecord::Slot::Kind;

  auto ParentAfterChild = [](testutil::TreeImage &Image) {
    Image.Records[1].Parent = static_cast<int64_t>(Image.Records.size() - 1);
  };
  auto TargetOutOfRange = [](testutil::TreeImage &Image) {
    testutil::DirectChild E;
    ASSERT_TRUE(testutil::findDirectChild(Image, E));
    Image.Records[E.Parent].Slots[E.Slot].Targets[0].first =
        Image.Records.size();
  };
  // Record 0 is the one root: a procedure's record there, a root parent
  // index other than -1, or a later record with no parent is bytes no
  // tree writes.
  auto RootOfAProcedure = [](testutil::TreeImage &Image) {
    Image.Records.front().Proc = 0;
  };
  auto RootParentMinusTwo = [](testutil::TreeImage &Image) {
    Image.Records.front().Parent = -2;
  };
  auto SecondRoot = [](testutil::TreeImage &Image) {
    Image.Records.back().Parent = -1;
  };
  auto ProcOutOfRange = [](testutil::TreeImage &Image) {
    Image.Records.back().Proc =
        static_cast<cct::ProcId>(Image.Procs.size() + 3);
  };
  // A direct slot listing a second target, its parent: the reader kept
  // only the last.
  auto DirectSlotWithTwoTargets = [](testutil::TreeImage &Image) {
    testutil::DirectChild E;
    ASSERT_TRUE(testutil::findDirectChild(Image, E));
    Image.Records[E.Parent].Slots[E.Slot].Targets.push_back({E.Parent, 0});
  };
  // A direct slot relabelled unresolved, its target kept: the reader
  // dropped the target.
  auto UnresolvedSlotWithATarget = [](testutil::TreeImage &Image) {
    testutil::DirectChild E;
    ASSERT_TRUE(testutil::findDirectChild(Image, E));
    Image.Records[E.Parent].Slots[E.Slot].Kind =
        static_cast<uint8_t>(SlotKind::Unresolved);
  };
  // One path sum listed twice in a record: the reader kept the first.
  auto PathSumListedTwice = [](testutil::TreeImage &Image) {
    for (testutil::TreeImage::Record &Rec : Image.Records)
      if (!Rec.PathCells.empty()) {
        Rec.PathCells.push_back(Rec.PathCells.front());
        Rec.PathCells.back().second.Freq += 1;
        return;
      }
    FAIL() << "no record with a path cell";
  };
  // Two path cells of a record swapped: the same cells, but not in the
  // ascending order every writer uses, so the bytes are not canonical.
  auto PathCellsSwapped = [](testutil::TreeImage &Image) {
    for (testutil::TreeImage::Record &Rec : Image.Records)
      if (Rec.PathCells.size() >= 2) {
        std::swap(Rec.PathCells[0], Rec.PathCells[1]);
        return;
      }
    FAIL() << "no record with two path cells";
  };
  struct Case {
    const char *Name;
    std::function<void(testutil::TreeImage &)> Edit;
    size_t Cut;
    profdb::DecodeStatus Want;
  };
  const Case Cases[] = {
      {"parent listed after its child", ParentAfterChild, 0,
       profdb::DecodeStatus::Malformed},
      {"slot target out of range", TargetOutOfRange, 0,
       profdb::DecodeStatus::Malformed},
      {"bad parent, then cut short", ParentAfterChild, 8,
       profdb::DecodeStatus::Truncated},
      {"root record of a procedure", RootOfAProcedure, 0,
       profdb::DecodeStatus::Malformed},
      {"root parent other than -1", RootParentMinusTwo, 0,
       profdb::DecodeStatus::Malformed},
      {"second root", SecondRoot, 0, profdb::DecodeStatus::Malformed},
      {"record procedure out of range", ProcOutOfRange, 0,
       profdb::DecodeStatus::Malformed},
      {"direct slot with two targets", DirectSlotWithTwoTargets, 0,
       profdb::DecodeStatus::Malformed},
      {"unresolved slot with a target", UnresolvedSlotWithATarget, 0,
       profdb::DecodeStatus::Malformed},
      {"path sum listed twice", PathSumListedTwice, 0,
       profdb::DecodeStatus::Malformed},
      {"path cells out of order", PathCellsSwapped, 0,
       profdb::DecodeStatus::Malformed},
  };
  for (const Case &C : Cases) {
    std::vector<uint8_t> Bytes =
        testutil::encodeWithEditedImage(A, C.Edit, C.Cut);
    profdb::Artifact Out;
    EXPECT_EQ(profdb::decodeArtifact(Bytes, Out), C.Want) << C.Name;
  }
  // The unedited image goes through the same splice and decodes.
  profdb::Artifact Out;
  EXPECT_EQ(profdb::decodeArtifact(testutil::encodeWithEditedImage(
                                       A, [](testutil::TreeImage &) {}),
                                   Out),
            profdb::DecodeStatus::Ok);
}

TEST(FaultSweepTest, ArtifactFileReadFoldsIoIntoStatus) {
  // A directory path and a missing path both fold into Unreadable rather
  // than a crash or a zero-length "success".
  profdb::Artifact Out;
  EXPECT_EQ(profdb::readArtifactFile("/tmp", Out),
            profdb::DecodeStatus::Unreadable);
  EXPECT_EQ(profdb::readArtifactFile("/tmp/pp-no-such-artifact.ppa", Out),
            profdb::DecodeStatus::Unreadable);
}

TEST(FaultSweepTest, StaleWriterTempsAreSweptOnListing) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  auto Touch = [&](const std::string &Name) {
    std::ofstream Out(Dir + "/" + Name, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(Out.is_open());
    Out << "partial";
  };
  // Backdates a temp's mtime so the age-gated sweep sees it as \p Age old.
  auto SetAge = [&](const std::string &Name, time_t Age) {
    struct timeval Times[2];
    Times[0].tv_sec = Times[1].tv_sec = ::time(nullptr) - Age;
    Times[0].tv_usec = Times[1].tv_usec = 0;
    ASSERT_EQ(::utimes((Dir + "/" + Name).c_str(), Times), 0);
  };
  auto Exists = [&](const std::string &Name) {
    return ::access((Dir + "/" + Name).c_str(), F_OK) == 0;
  };

  // A writer that died between open and rename: a child that exits
  // immediately gives us a pid guaranteed dead once waitpid returns.
  pid_t Dead = fork();
  ASSERT_GE(Dead, 0);
  if (Dead == 0)
    _exit(0);
  ASSERT_EQ(waitpid(Dead, nullptr, 0), Dead);

  // Dead writer, past the grace period: the canonical orphan.
  std::string DeadOld = "ppa-00000000deadbeef.ppa.tmp." + std::to_string(Dead);
  Touch(DeadOld);
  SetAge(DeadOld, profdb::StaleTempGraceSeconds + 60);
  // Dead-probing writer, younger than the grace period: on a shared
  // filesystem this is what a *live* writer on another host looks like,
  // so the sweep must not touch it.
  std::string DeadFresh =
      "ppa-00000000feedface.ppa.tmp." + std::to_string(Dead);
  Touch(DeadFresh);
  // Live writer (us), past grace but under the hard limit: kept.
  std::string LiveOld =
      "ppa-00000000cafef00d.ppa.tmp." + std::to_string(getpid());
  Touch(LiveOld);
  SetAge(LiveOld, profdb::StaleTempGraceSeconds + 60);
  // "Live" pid but ancient: no writer holds a temp open this long, so the
  // pid must have been recycled by an unrelated process — swept.
  std::string LiveAncient =
      "ppa-00000000ba5eba11.ppa.tmp." + std::to_string(getpid());
  Touch(LiveAncient);
  SetAge(LiveAncient, profdb::StaleTempHardSeconds + 60);
  // A name that merely looks temp-ish survives any sweep.
  Touch("ppa-0000000012345678.ppa.tmp.notapid");

  // Listing a repository sweeps the orphans and only the orphans.
  std::vector<std::string> Files = profdb::listArtifactFiles(Dir);
  EXPECT_TRUE(Files.empty()); // temps never list as artifacts
  EXPECT_FALSE(Exists(DeadOld));
  EXPECT_FALSE(Exists(LiveAncient));
  EXPECT_TRUE(Exists(DeadFresh));
  EXPECT_TRUE(Exists(LiveOld));
  EXPECT_TRUE(Exists("ppa-0000000012345678.ppa.tmp.notapid"));

  // A second sweep finds nothing left to do.
  EXPECT_EQ(profdb::sweepStaleTemps(Dir), 0u);

  removeDir(Dir);
}

TEST(FaultSweepTest, StaleCacheTempsAreSweptOnOpen) {
  // The run cache shares the repository's file store, sweep included: a
  // writer that crashed between open and rename must not leave its temp
  // in the cache directory forever.
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());
  pid_t Dead = fork();
  ASSERT_GE(Dead, 0);
  if (Dead == 0)
    _exit(0);
  ASSERT_EQ(waitpid(Dead, nullptr, 0), Dead);

  std::string Old = Dir + "/pp-00000000deadbeef.ppo.tmp." +
                    std::to_string(Dead);
  std::string Fresh = Dir + "/pp-00000000feedface.ppo.tmp." +
                      std::to_string(Dead);
  for (const std::string &Path : {Old, Fresh}) {
    std::ofstream Out(Path, std::ios::binary);
    Out << "partial";
  }
  struct timeval Times[2];
  Times[0].tv_sec = Times[1].tv_sec =
      ::time(nullptr) - profdb::StaleTempGraceSeconds - 60;
  Times[0].tv_usec = Times[1].tv_usec = 0;
  ASSERT_EQ(::utimes(Old.c_str(), Times), 0);

  RunCache Cache(Dir);
  EXPECT_NE(::access(Old.c_str(), F_OK), 0);
  EXPECT_EQ(::access(Fresh.c_str(), F_OK), 0);

  removeDir(Dir);
}

TEST(FaultSweepTest, StaleVersionReportsBadVersion) {
  Driver D(/*DiskDir=*/"", /*Threads=*/1);
  RunPlan Plan = makePlan("130.li", prof::Mode::Flow);
  OutcomePtr Run = D.run(Plan);
  ASSERT_TRUE(Run && Run->Result.Ok);

  std::vector<uint8_t> Bytes = entryOf(Plan, *Run);
  // A Version-1 file had no trailer; the version gate must fire before
  // the checksum is even consulted.
  Bytes[8] = 1;
  Bytes.resize(Bytes.size() - 4);
  prof::RunOutcome Out;
  EXPECT_EQ(profdb::decodeRunEntry(Bytes, "fp", Out),
            DecodeStatus::BadVersion);
}

//===----------------------------------------------------------------------===//
// Disk-layer degradation, end to end
//===----------------------------------------------------------------------===//

TEST(FaultDiskTest, CorruptFileOnDiskFallsBackToReexecution) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  OutcomePtr Clean;
  {
    Driver Writer(Dir, /*Threads=*/1);
    Clean = Writer.run(makePlan("124.m88ksim", prof::Mode::FlowHw));
    ASSERT_TRUE(Clean && Clean->Result.Ok);
  }
  ASSERT_EQ(countCacheFiles(Dir), 1u);

  // Flip one byte in the middle of the file on disk.
  std::string Path = onlyCacheFile(Dir);
  ASSERT_FALSE(Path.empty());
  {
    std::fstream File(Path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(File.is_open());
    File.seekp(200);
    char Byte = 0x5A;
    File.write(&Byte, 1);
  }

  Driver Reader(Dir, /*Threads=*/1);
  OutcomePtr Recovered =
      Reader.run(makePlan("124.m88ksim", prof::Mode::FlowHw));
  ASSERT_TRUE(Recovered && Recovered->Result.Ok);
  // The corrupt file was rejected (with a typed reason), removed, and the
  // run re-executed to the clean measurement.
  EXPECT_EQ(Reader.scheduler().runsExecuted(), 1u);
  RunCache::Stats Stats = Reader.cache().stats();
  EXPECT_EQ(Stats.DiskHits, 0u);
  EXPECT_EQ(Stats.DecodeFailures, 1u);
  expectSameMeasurement(*Clean, *Recovered);

  // The store after re-execution healed the file: a third driver hits.
  ASSERT_EQ(countCacheFiles(Dir), 1u);
  Driver Healed(Dir, /*Threads=*/1);
  OutcomePtr FromDisk =
      Healed.run(makePlan("124.m88ksim", prof::Mode::FlowHw));
  ASSERT_TRUE(FromDisk && FromDisk->Result.Ok);
  EXPECT_EQ(Healed.scheduler().runsExecuted(), 0u);
  EXPECT_EQ(Healed.cache().stats().DiskHits, 1u);

  removeDir(Dir);
}

TEST(FaultDiskTest, TruncatedFileOnDiskFallsBackToReexecution) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  OutcomePtr Clean;
  {
    Driver Writer(Dir, /*Threads=*/1);
    Clean = Writer.run(makePlan("130.li", prof::Mode::Flow));
    ASSERT_TRUE(Clean && Clean->Result.Ok);
  }

  // Cut the file on disk to half its length, as a torn copy would.
  std::string Path = onlyCacheFile(Dir);
  ASSERT_FALSE(Path.empty());
  struct stat St;
  ASSERT_EQ(::stat(Path.c_str(), &St), 0);
  ASSERT_EQ(::truncate(Path.c_str(), St.st_size / 2), 0);

  Driver Reader(Dir, /*Threads=*/1);
  OutcomePtr Recovered = Reader.run(makePlan("130.li", prof::Mode::Flow));
  ASSERT_TRUE(Recovered && Recovered->Result.Ok);
  EXPECT_EQ(Reader.scheduler().runsExecuted(), 1u);
  EXPECT_EQ(Reader.cache().stats().DecodeFailures, 1u);
  expectSameMeasurement(*Clean, *Recovered);

  removeDir(Dir);
}

//===----------------------------------------------------------------------===//
// Run-failure isolation
//===----------------------------------------------------------------------===//

TEST(FaultRunTest, MidSuiteFailureLeavesOtherRowsIntact) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  // The middle run gets an instruction budget far below what li needs,
  // so it fails for real inside the VM.
  RunPlan Starved = makePlan("130.li", prof::Mode::FlowHw);
  Starved.Options.MaxInsts = 1000;

  Driver D(Dir, /*Threads=*/2);
  std::vector<size_t> Tickets;
  Tickets.push_back(D.submit(makePlan("124.m88ksim", prof::Mode::FlowHw)));
  Tickets.push_back(D.submit(Starved));
  Tickets.push_back(D.submit(makePlan("107.mgrid", prof::Mode::FlowHw)));

  OutcomePtr M88k = D.get(Tickets[0]);
  OutcomePtr Li = D.get(Tickets[1]);
  OutcomePtr Mgrid = D.get(Tickets[2]);

  // The starved run failed structurally; its neighbours are untouched.
  ASSERT_TRUE(Li);
  EXPECT_FALSE(Li->Result.Ok);
  EXPECT_NE(Li->Result.Error.find("instruction budget exhausted"),
            std::string::npos);
  ASSERT_TRUE(M88k && Mgrid);
  EXPECT_TRUE(M88k->Result.Ok);
  EXPECT_TRUE(Mgrid->Result.Ok);
  EXPECT_EQ(D.scheduler().runsFailed(), 1u);
  EXPECT_EQ(D.scheduler().runsExecuted(), 3u);

  // Only the successful runs were persisted; the failure is not made
  // permanent for later processes.
  EXPECT_EQ(countCacheFiles(Dir), 2u);

  // A fresh driver with the default budget executes li and gets the
  // real measurement.
  Driver Retry(Dir, /*Threads=*/1);
  OutcomePtr LiRetry = Retry.run(makePlan("130.li", prof::Mode::FlowHw));
  ASSERT_TRUE(LiRetry && LiRetry->Result.Ok);
  EXPECT_EQ(Retry.scheduler().runsExecuted(), 1u);

  removeDir(Dir);
}

TEST(FaultRunTest, UnknownWorkloadIsAStructuredFailure) {
  Driver D(/*DiskDir=*/"", /*Threads=*/1);
  OutcomePtr Bad = D.run(makePlan("999.no-such-benchmark", prof::Mode::None));
  ASSERT_TRUE(Bad);
  EXPECT_FALSE(Bad->Result.Ok);
  EXPECT_NE(Bad->Result.Error.find("unknown workload"), std::string::npos);
  EXPECT_EQ(D.scheduler().runsFailed(), 1u);

  // The driver is still fully usable afterwards.
  OutcomePtr Good = D.run(makePlan("130.li", prof::Mode::None));
  ASSERT_TRUE(Good && Good->Result.Ok);
}

} // namespace
