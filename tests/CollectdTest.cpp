//===- tests/CollectdTest.cpp - fleet ingest service -----------------------------===//
//
// The collector's contract: every upload gets a typed verdict; a corrupt
// or cross-acquisition upload rejects exactly that artifact and provably
// leaves the window's fold byte-identical to a service that never saw
// it; window folds are bit-identical under any arrival order or thread
// count, and equal a flat merge of their leaves; quotas and queue
// backpressure bound the fleet; persisted windows are ordinary .ppa
// artifacts.
//
//===----------------------------------------------------------------------===//

#include "cct/CallingContextTree.h"
#include "collectd/Ingest.h"
#include "collectd/MergeTree.h"
#include "driver/Driver.h"
#include "driver/FaultInjector.h"
#include "profdb/Merge.h"
#include "profdb/Store.h"
#include "workloads/Spec.h"

#include "CraftedTrees.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

using namespace pp;
using namespace pp::collectd;

namespace {

std::string makeTempDir() {
  char Template[] = "/tmp/pp-collectd-test-XXXXXX";
  const char *Dir = mkdtemp(Template);
  EXPECT_NE(Dir, nullptr);
  return Dir ? Dir : "";
}

void removeDir(const std::string &Dir) {
  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

struct InjectorGuard {
  ~InjectorGuard() { driver::FaultInjector::instance().configure({}); }
};

/// A decoded artifact for 130.li (built once; cloned per upload via its
/// encoded bytes). \p Acquisition tags the schema only — the measurement
/// is the same exact run either way, which is exactly what the
/// cross-acquisition gate must catch.
const std::vector<uint8_t> &encodedArtifact(const std::string &Fingerprint,
                                            const std::string &Acquisition) {
  static std::vector<uint8_t> *Cache = nullptr;
  static driver::OutcomePtr Run;
  static std::unique_ptr<ir::Module> Module;
  static prof::ProfileConfig Config;
  if (!Run) {
    driver::Driver D(/*DiskDir=*/"", /*Threads=*/0);
    driver::RunPlan Plan;
    Plan.Workload = "130.li";
    Plan.Options.Config.M = prof::Mode::ContextFlowHw;
    Run = D.run(Plan);
    EXPECT_TRUE(Run && Run->Result.Ok);
    Module = workloads::buildWorkload("130.li", 1);
    Config = Plan.Options.Config;
  }
  profdb::Artifact A = profdb::artifactFromOutcome(
      *Run, *Module, Fingerprint, "130.li", 1, Config, Acquisition);
  static thread_local std::vector<uint8_t> Bytes;
  Bytes = profdb::encodeArtifact(A);
  (void)Cache;
  return Bytes;
}

Upload makeUpload(const std::string &Tenant, uint64_t Window,
                  unsigned Serial, const std::string &Acq = "exact") {
  return Upload{Tenant, Window,
                encodedArtifact("fleet;u" + std::to_string(Serial), Acq)};
}

IngestConfig manualConfig() {
  IngestConfig C;
  C.Threads = 0; // manual pump: fully deterministic
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Rejection isolation — the acceptance criterion
//===----------------------------------------------------------------------===//

TEST(CollectdIngestTest, CorruptUploadRejectsOnlyThatArtifact) {
  IngestService Clean(manualConfig());
  IngestService Faulty(manualConfig());

  for (unsigned Serial = 0; Serial != 5; ++Serial) {
    Upload U = makeUpload("t0", /*Window=*/7, Serial);
    EXPECT_TRUE(Clean.ingestNow(U).Accepted);
    EXPECT_TRUE(Faulty.ingestNow(std::move(U)).Accepted);
  }

  // One more upload, corrupted in flight, reaches only the faulty
  // service. The CRC gate turns it into a typed rejection.
  Upload Bad = makeUpload("t0", 7, 99);
  Bad.Bytes[Bad.Bytes.size() / 2] ^= 0x10;
  UploadResult Verdict = Faulty.ingestNow(std::move(Bad));
  EXPECT_FALSE(Verdict.Accepted);
  EXPECT_EQ(Verdict.Reason, RejectReason::Corrupt);
  EXPECT_EQ(Verdict.Decode, profdb::DecodeStatus::BadChecksum);

  IngestStats Stats = Faulty.stats();
  EXPECT_EQ(Stats.Accepted, 5u);
  EXPECT_EQ(Stats.Rejected, 1u);
  EXPECT_EQ(Stats.RejectedBy[static_cast<size_t>(RejectReason::Corrupt)],
            1u);

  // The fold of the window that saw the corrupt upload is byte-identical
  // to the fold of the window that never did.
  std::string Error;
  std::vector<std::vector<uint8_t>> FaultyBytes = Faulty.windowBytes(7, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  std::vector<std::vector<uint8_t>> CleanBytes = Clean.windowBytes(7, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(FaultyBytes, CleanBytes);
}

TEST(CollectdIngestTest, CrossAcquisitionUploadIsRejectedTyped) {
  IngestService Clean(manualConfig());
  IngestService Faulty(manualConfig());

  for (unsigned Serial = 0; Serial != 3; ++Serial) {
    Upload U = makeUpload("t0", 1, Serial);
    EXPECT_TRUE(Clean.ingestNow(U).Accepted);
    EXPECT_TRUE(Faulty.ingestNow(std::move(U)).Accepted);
  }

  // A structurally valid artifact whose schema says its counts were
  // *sampled*: folding it into exact counts would quietly bias the
  // window, so it is refused before any merge.
  UploadResult Verdict =
      Faulty.ingestNow(makeUpload("t0", 1, 50, "overflow"));
  EXPECT_FALSE(Verdict.Accepted);
  EXPECT_EQ(Verdict.Reason, RejectReason::CrossAcquisition);
  EXPECT_EQ(Verdict.Decode, profdb::DecodeStatus::Ok);

  std::string Error;
  EXPECT_EQ(Faulty.windowBytes(1, Error), Clean.windowBytes(1, Error));
  EXPECT_TRUE(Error.empty()) << Error;
}

TEST(CollectdIngestTest, InjectedReadCorruptionRejectsUploadNotWindow) {
  InjectorGuard Guard;
  IngestService Service(manualConfig());
  ASSERT_TRUE(Service.ingestNow(makeUpload("t0", 0, 0)).Accepted);

  driver::FaultInjector::Config C;
  C.Seed = 9;
  C.FlipEveryNthRead = 1;
  driver::FaultInjector::instance().configure(C);
  UploadResult Verdict = Service.ingestNow(makeUpload("t0", 0, 1));
  EXPECT_FALSE(Verdict.Accepted);
  EXPECT_EQ(Verdict.Reason, RejectReason::Corrupt);

  driver::FaultInjector::instance().configure({});
  EXPECT_TRUE(Service.ingestNow(makeUpload("t0", 0, 2)).Accepted);
  EXPECT_EQ(Service.stats().Accepted, 2u);
}

//===----------------------------------------------------------------------===//
// Determinism of the window folds
//===----------------------------------------------------------------------===//

TEST(CollectdIngestTest, ArrivalOrderAndThreadsDoNotChangeBytes) {
  constexpr unsigned NumUploads = 9;
  std::vector<Upload> Uploads;
  for (unsigned Serial = 0; Serial != NumUploads; ++Serial)
    Uploads.push_back(makeUpload("t0", 3, Serial));

  auto FoldBytes = [&](std::vector<Upload> Ups, IngestConfig C) {
    IngestService Service(C);
    for (Upload &U : Ups)
      Service.submit(std::move(U));
    Service.drain();
    std::string Error;
    auto Bytes = Service.windowBytes(3, Error);
    EXPECT_TRUE(Error.empty()) << Error;
    EXPECT_EQ(Service.stats().Accepted, NumUploads);
    return Bytes;
  };

  IngestConfig Manual = manualConfig();
  std::vector<std::vector<uint8_t>> Reference = FoldBytes(Uploads, Manual);
  ASSERT_FALSE(Reference.empty());

  // Reversed arrivals.
  std::vector<Upload> Reversed(Uploads.rbegin(), Uploads.rend());
  EXPECT_EQ(FoldBytes(std::move(Reversed), Manual), Reference);

  // A racing thread pool: arrival interleaving is whatever the scheduler
  // makes it, the bytes must not care.
  IngestConfig Threaded = manualConfig();
  Threaded.Threads = 4;
  EXPECT_EQ(FoldBytes(std::move(Uploads), Threaded), Reference);
}

TEST(CollectdMergeTreeTest, FoldedBytesEqualFlatMergeOfLeaves) {
  constexpr unsigned NumLeaves = 8;
  MergeTree Tree;
  std::vector<profdb::Artifact> Flat;
  std::string Error;
  for (unsigned Serial = 0; Serial != NumLeaves; ++Serial) {
    profdb::Artifact A;
    ASSERT_EQ(profdb::decodeArtifact(
                  encodedArtifact("fleet;u" + std::to_string(Serial), "exact"),
                  A),
              profdb::DecodeStatus::Ok);
    Flat.push_back(profdb::cloneArtifact(A));
    ASSERT_TRUE(Tree.add(std::move(A), Error)) << Error;
  }
  EXPECT_EQ(Tree.leafCount(), NumLeaves);

  const profdb::Artifact *Folded = Tree.folded(Error);
  ASSERT_NE(Folded, nullptr) << Error;
  profdb::Artifact FlatMerged;
  ASSERT_TRUE(profdb::mergeAll(std::move(Flat), FlatMerged, Error, 1))
      << Error;
  EXPECT_EQ(profdb::encodeArtifact(*Folded),
            profdb::encodeArtifact(FlatMerged));
}

//===----------------------------------------------------------------------===//
// Merge-incompatible uploads — rejected at admission, window intact
//===----------------------------------------------------------------------===//

namespace {

profdb::Artifact decodedArtifact(unsigned Serial) {
  profdb::Artifact A;
  EXPECT_EQ(profdb::decodeArtifact(
                encodedArtifact("fleet;u" + std::to_string(Serial), "exact"),
                A),
            profdb::DecodeStatus::Ok);
  return A;
}

/// An artifact that decodes cleanly and lands in the same schema group as
/// the good uploads — the group key sees only CCT *presence*, not its
/// geometry — but cannot merge with them: its CCT hash threshold differs,
/// which mergeArtifacts rejects as a CCT geometry mismatch.
std::vector<uint8_t> incompatibleBytes() {
  profdb::Artifact A = decodedArtifact(97);
  EXPECT_NE(A.Tree, nullptr);
  cct::TreeImage Image = A.Tree->image();
  Image.HashThreshold += 1;
  A.Tree = cct::CallingContextTree::fromImage(Image);
  EXPECT_NE(A.Tree, nullptr);
  return profdb::encodeArtifact(A);
}

} // namespace

TEST(CollectdMergeTreeTest, IncompatibleAddRejectsAndLeavesTreeUntouched) {
  MergeTree Tree;
  std::string Error;
  for (unsigned Serial = 0; Serial != 3; ++Serial)
    ASSERT_TRUE(Tree.add(decodedArtifact(Serial), Error)) << Error;

  const profdb::Artifact *Before = Tree.folded(Error);
  ASSERT_NE(Before, nullptr) << Error;
  std::vector<uint8_t> BeforeBytes = profdb::encodeArtifact(*Before);

  // The fold's checks must reject the incompatible artifact before the
  // fold is touched.
  profdb::Artifact Bad;
  ASSERT_EQ(profdb::decodeArtifact(incompatibleBytes(), Bad),
            profdb::DecodeStatus::Ok);
  EXPECT_FALSE(Tree.add(std::move(Bad), Error));
  EXPECT_NE(Error.find("CCT geometry mismatch"), std::string::npos) << Error;

  // Nothing moved: the leaf count and the folded bytes are exactly as if
  // the artifact was never offered.
  EXPECT_EQ(Tree.leafCount(), 3u);
  const profdb::Artifact *After = Tree.folded(Error);
  ASSERT_NE(After, nullptr) << Error;
  EXPECT_EQ(profdb::encodeArtifact(*After), BeforeBytes);

  // And the tree still accepts compatible leaves afterwards.
  ASSERT_TRUE(Tree.add(decodedArtifact(3), Error)) << Error;
  EXPECT_EQ(Tree.leafCount(), 4u);
}

TEST(CollectdIngestTest, MergeIncompatibleUploadRejectsAtAdmission) {
  IngestService Clean(manualConfig());
  IngestService Faulty(manualConfig());

  // The incompatible upload must be refused on its own admission, never
  // surface later as the merge failure of an innocent upload or query.
  for (unsigned Serial = 0; Serial != 2; ++Serial) {
    Upload U = makeUpload("t0", 5, Serial);
    EXPECT_TRUE(Clean.ingestNow(U).Accepted);
    EXPECT_TRUE(Faulty.ingestNow(std::move(U)).Accepted);
  }

  UploadResult Verdict =
      Faulty.ingestNow(Upload{"t0", 5, incompatibleBytes()});
  EXPECT_FALSE(Verdict.Accepted);
  EXPECT_EQ(Verdict.Reason, RejectReason::MergeFailed);
  EXPECT_EQ(Verdict.Decode, profdb::DecodeStatus::Ok);

  // Later uploads into the window are innocent and stay accepted.
  Upload U = makeUpload("t0", 5, 2);
  EXPECT_TRUE(Clean.ingestNow(U).Accepted);
  EXPECT_TRUE(Faulty.ingestNow(std::move(U)).Accepted);

  IngestStats Stats = Faulty.stats();
  EXPECT_EQ(Stats.Accepted, 3u);
  EXPECT_EQ(
      Stats.RejectedBy[static_cast<size_t>(RejectReason::MergeFailed)], 1u);

  // The window's fold is byte-identical to a service that never saw the
  // incompatible upload, and queries keep serving.
  std::string Error;
  std::vector<std::vector<uint8_t>> FaultyBytes =
      Faulty.windowBytes(5, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  std::vector<std::vector<uint8_t>> CleanBytes = Clean.windowBytes(5, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(FaultyBytes, CleanBytes);
  EXPECT_NE(Faulty.queryCctStats(5, Error).find("runs=3"),
            std::string::npos);
  EXPECT_TRUE(Error.empty()) << Error;
}

namespace {

/// Upload \p Serial's artifact with its CCT rebuilt from an image edited
/// by \p Edit and re-encoded: the CRC is valid and decodeArtifact returns
/// Ok, but emitting a fold with it would trip an assertion in the CCT.
std::vector<uint8_t>
craftedBytes(unsigned Serial,
             const std::function<void(cct::TreeImage &)> &Edit) {
  return profdb::encodeArtifact(
      testutil::withEditedTree(decodedArtifact(Serial), Edit));
}

} // namespace

TEST(CollectdIngestTest, ExtraSlotUploadIsMergeFailedNotAnAbort) {
  // A child moved past its procedure's call sites: the very first add
  // must refuse it, or emitting the fold would enter a slot that does
  // not exist.
  std::vector<uint8_t> Bytes =
      craftedBytes(98, testutil::moveChildToExtraSlot);
  profdb::Artifact A;
  ASSERT_EQ(profdb::decodeArtifact(Bytes, A), profdb::DecodeStatus::Ok);
  MergeTree Tree;
  std::string Error;
  EXPECT_FALSE(Tree.add(std::move(A), Error));
  EXPECT_NE(Error.find("slot count"), std::string::npos) << Error;
  EXPECT_EQ(Tree.leafCount(), 0u);

  IngestService Service(manualConfig());
  UploadResult Verdict = Service.ingestNow(Upload{"t0", 5, Bytes});
  EXPECT_FALSE(Verdict.Accepted);
  EXPECT_EQ(Verdict.Reason, RejectReason::MergeFailed);
  EXPECT_EQ(Verdict.Decode, profdb::DecodeStatus::Ok);
  // The window was created only for the refused upload; it is gone.
  EXPECT_TRUE(Service.windows().empty());
  EXPECT_TRUE(Service.ingestNow(makeUpload("t0", 5, 0)).Accepted);
}

TEST(CollectdIngestTest, SecondCalleeInDirectSlotIsMergeFailedNotAnAbort) {
  // On its own the swapped tree is sound; after the original it would
  // resolve one direct slot to two procedures.
  IngestService Clean(manualConfig());
  IngestService Faulty(manualConfig());
  Upload U = makeUpload("t0", 5, 0);
  EXPECT_TRUE(Clean.ingestNow(U).Accepted);
  EXPECT_TRUE(Faulty.ingestNow(std::move(U)).Accepted);

  UploadResult Verdict = Faulty.ingestNow(
      Upload{"t0", 5, craftedBytes(99, testutil::swapLeafCallee)});
  EXPECT_FALSE(Verdict.Accepted);
  EXPECT_EQ(Verdict.Reason, RejectReason::MergeFailed);
  EXPECT_EQ(Verdict.Decode, profdb::DecodeStatus::Ok);

  std::string Error;
  std::vector<std::vector<uint8_t>> FaultyBytes = Faulty.windowBytes(5, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(FaultyBytes, Clean.windowBytes(5, Error));
  EXPECT_EQ(Faulty.stats().Accepted, 1u);
}

TEST(CollectdMergeTreeTest, SingleLeafFoldIsTheLeafItself) {
  const std::vector<uint8_t> Bytes = encodedArtifact("fleet;u0", "exact");
  profdb::Artifact A;
  ASSERT_EQ(profdb::decodeArtifact(Bytes, A), profdb::DecodeStatus::Ok);
  MergeTree Tree;
  std::string Error;
  ASSERT_TRUE(Tree.add(std::move(A), Error)) << Error;
  const profdb::Artifact *Folded = Tree.folded(Error);
  ASSERT_NE(Folded, nullptr) << Error;
  EXPECT_EQ(profdb::encodeArtifact(*Folded), Bytes);
}

//===----------------------------------------------------------------------===//
// Quotas and backpressure
//===----------------------------------------------------------------------===//

TEST(CollectdIngestTest, QuotaBoundsEachTenantPerWindow) {
  IngestConfig C = manualConfig();
  C.TenantWindowQuota = 2;
  IngestService Service(C);

  unsigned Serial = 0;
  for (unsigned I = 0; I != 4; ++I) {
    UploadResult R = Service.ingestNow(makeUpload("loud", 0, Serial++));
    EXPECT_EQ(R.Accepted, I < 2);
    if (!R.Accepted)
      EXPECT_EQ(R.Reason, RejectReason::QuotaExceeded);
  }
  // Another tenant, and the same tenant in another window, are untouched.
  EXPECT_TRUE(Service.ingestNow(makeUpload("quiet", 0, Serial++)).Accepted);
  EXPECT_TRUE(Service.ingestNow(makeUpload("loud", 1, Serial++)).Accepted);

  IngestStats Stats = Service.stats();
  EXPECT_EQ(Stats.Accepted, 4u);
  EXPECT_EQ(
      Stats.RejectedBy[static_cast<size_t>(RejectReason::QuotaExceeded)],
      2u);
}

TEST(CollectdIngestTest, TrySubmitBackpressuresAtQueueCapacity) {
  IngestConfig C = manualConfig();
  C.QueueCapacity = 2;
  IngestService Service(C);

  EXPECT_TRUE(Service.trySubmit(makeUpload("t0", 0, 0)));
  EXPECT_TRUE(Service.trySubmit(makeUpload("t0", 0, 1)));
  // Queue full and no workers: the caller gets backpressure, not a hang.
  EXPECT_FALSE(Service.trySubmit(makeUpload("t0", 0, 2)));
  EXPECT_EQ(Service.stats().Backpressured, 1u);

  Service.drain();
  EXPECT_EQ(Service.stats().Accepted, 2u);
  EXPECT_TRUE(Service.trySubmit(makeUpload("t0", 0, 2)));
  Service.drain();
  EXPECT_EQ(Service.stats().Accepted, 3u);
}

TEST(CollectdIngestTest, ManualModeSubmitPastCapacityPumpsInline) {
  // submit() in manual-pump mode used to block on QueueNotFull with no
  // consumer to ever wake it: any caller submitting more than
  // QueueCapacity uploads before drain() deadlocked (the ingest bench's
  // serial reference fold hit exactly this). A full queue must instead
  // pump inline on the calling thread.
  IngestConfig C = manualConfig();
  C.QueueCapacity = 2;
  IngestService Service(C);

  for (unsigned Serial = 0; Serial != 7; ++Serial)
    Service.submit(makeUpload("t0", 0, Serial));
  // Capacity still bounds the backlog: everything past it was ingested
  // to make room, so at most QueueCapacity uploads remain queued.
  EXPECT_GE(Service.stats().Accepted, 5u);
  Service.drain();
  EXPECT_EQ(Service.stats().Submitted, 7u);
  EXPECT_EQ(Service.stats().Accepted, 7u);
  EXPECT_EQ(Service.stats().Rejected, 0u);
}

//===----------------------------------------------------------------------===//
// Queries and persistence
//===----------------------------------------------------------------------===//

TEST(CollectdIngestTest, QueriesRenderAndUnknownWindowIsTyped) {
  IngestService Service(manualConfig());
  for (unsigned Serial = 0; Serial != 3; ++Serial)
    ASSERT_TRUE(Service.ingestNow(makeUpload("t0", 4, Serial)).Accepted);

  std::string Error;
  std::string Stats = Service.queryCctStats(4, Error);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_NE(Stats.find("runs=3"), std::string::npos);
  EXPECT_NE(Stats.find("Max depth"), std::string::npos);

  std::string Procs = Service.queryTopProcs(4, 5, Error);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_NE(Procs.find("130.li"), std::string::npos);

  EXPECT_EQ(Service.queryTopPaths(99, 5, Error), "");
  EXPECT_NE(Error.find("no such window"), std::string::npos);
  EXPECT_EQ(Service.stats().Queries, 3u);
}

TEST(CollectdIngestTest, PersistWritesOrdinaryArtifacts) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  IngestConfig C = manualConfig();
  // Parents of the store root don't exist yet: persist must create the
  // whole chain (the recursive-mkdir fix this PR ships).
  C.StoreDir = Dir + "/fleet/profiles";
  IngestService Service(C);
  for (unsigned Serial = 0; Serial != 4; ++Serial)
    ASSERT_TRUE(Service.ingestNow(makeUpload("t0", 12, Serial)).Accepted);

  std::string Error;
  ASSERT_TRUE(Service.persist(Error)) << Error;

  std::vector<std::string> Files =
      profdb::listArtifactFiles(C.StoreDir + "/w12");
  ASSERT_EQ(Files.size(), 1u);
  profdb::Artifact Back;
  ASSERT_EQ(profdb::readArtifactFile(Files[0], Back),
            profdb::DecodeStatus::Ok);
  EXPECT_EQ(Back.RunCount, 4u);
  EXPECT_EQ(Back.Workload, "130.li");

  // The persisted bytes are exactly the window fold the queries serve.
  std::vector<std::vector<uint8_t>> Window = Service.windowBytes(12, Error);
  ASSERT_EQ(Window.size(), 1u);
  EXPECT_EQ(profdb::encodeArtifact(Back), Window[0]);

  removeDir(Dir);
}

//===----------------------------------------------------------------------===//
// Token-bucket rate limiting
//===----------------------------------------------------------------------===//

TEST(CollectdRateTest, BucketRefusesBeyondBurstAndRefillsOnTheClock) {
  // A manual clock makes the bucket exact: burst-many accepts, then
  // typed refusals until the injected time advances.
  uint64_t NowNs = 0;
  IngestConfig C = manualConfig();
  C.TenantRatePerSec = 2;  // one token every half second
  C.TenantRateBurst = 3;
  C.RateClockNs = [&NowNs] { return NowNs; };
  IngestService Service(C);

  unsigned Accepted = 0, Limited = 0;
  for (unsigned Serial = 0; Serial != 6; ++Serial) {
    UploadResult R = Service.ingestNow(makeUpload("t0", 0, Serial));
    if (R.Accepted)
      ++Accepted;
    else {
      EXPECT_EQ(R.Reason, RejectReason::RateLimited);
      EXPECT_EQ(R.Decode, profdb::DecodeStatus::Ok);
      ++Limited;
    }
  }
  EXPECT_EQ(Accepted, 3u);
  EXPECT_EQ(Limited, 3u);

  // Half a second buys exactly one more token.
  NowNs += 500000000;
  EXPECT_TRUE(Service.ingestNow(makeUpload("t0", 0, 10)).Accepted);
  UploadResult R = Service.ingestNow(makeUpload("t0", 0, 11));
  EXPECT_FALSE(R.Accepted);
  EXPECT_EQ(R.Reason, RejectReason::RateLimited);

  // The refusal accounting is per reason and never charges the quota or
  // decode counters: a rate-limited upload was refused unseen.
  IngestStats Stats = Service.stats();
  EXPECT_EQ(Stats.Submitted, 8u);
  EXPECT_EQ(Stats.Accepted, 4u);
  EXPECT_EQ(Stats.RejectedBy[static_cast<size_t>(RejectReason::RateLimited)],
            4u);
  EXPECT_EQ(Stats.RejectedBy[static_cast<size_t>(RejectReason::Corrupt)], 0u);
}

TEST(CollectdRateTest, BucketsArePerTenant) {
  uint64_t NowNs = 0;
  IngestConfig C = manualConfig();
  C.TenantRatePerSec = 1;
  C.TenantRateBurst = 1;
  C.RateClockNs = [&NowNs] { return NowNs; };
  IngestService Service(C);

  // Each tenant gets its own full bucket; one tenant draining hers does
  // not starve another's first upload.
  EXPECT_TRUE(Service.ingestNow(makeUpload("t0", 0, 0)).Accepted);
  EXPECT_FALSE(Service.ingestNow(makeUpload("t0", 0, 1)).Accepted);
  EXPECT_TRUE(Service.ingestNow(makeUpload("t1", 0, 2)).Accepted);
  EXPECT_FALSE(Service.ingestNow(makeUpload("t1", 0, 3)).Accepted);
}

//===----------------------------------------------------------------------===//
// Window retention
//===----------------------------------------------------------------------===//

TEST(CollectdRetentionTest, OldWindowsArePersistedThenDroppedAndClosed) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  IngestConfig C = manualConfig();
  C.StoreDir = Dir;
  C.RetainWindows = 2;
  IngestService Service(C);

  // Fill windows 1..3: crossing the cap must persist-and-drop window 1.
  for (uint64_t Window = 1; Window != 4; ++Window)
    for (unsigned Serial = 0; Serial != 2; ++Serial)
      ASSERT_TRUE(Service
                      .ingestNow(makeUpload("t0", Window,
                                            unsigned(Window) * 10 + Serial))
                      .Accepted);

  IngestStats Stats = Service.stats();
  EXPECT_EQ(Stats.WindowsExpired, 1u);
  EXPECT_EQ(Stats.RetentionHeld, 0u);
  std::vector<uint64_t> Resident = Service.windows();
  EXPECT_EQ(Resident, (std::vector<uint64_t>{2, 3}));

  // The expired window's fold landed on disk before it left memory.
  std::vector<std::string> Files = profdb::listArtifactFiles(Dir + "/w1");
  ASSERT_EQ(Files.size(), 1u);
  profdb::Artifact Back;
  ASSERT_EQ(profdb::readArtifactFile(Files[0], Back),
            profdb::DecodeStatus::Ok);
  EXPECT_EQ(Back.RunCount, 2u);

  // A late upload aimed below the watermark is refused typed — folding
  // into a fresh resident window 1 would disagree with the stored bytes.
  UploadResult Late = Service.ingestNow(makeUpload("t0", 1, 99));
  EXPECT_FALSE(Late.Accepted);
  EXPECT_EQ(Late.Reason, RejectReason::WindowExpired);
  EXPECT_EQ(
      Service.stats().RejectedBy[static_cast<size_t>(
          RejectReason::WindowExpired)],
      1u);

  removeDir(Dir);
}

TEST(CollectdRetentionTest, UnpersistableWindowsAreNeverDropped) {
  // No StoreDir: retention wants to shed the oldest window but has
  // nowhere to put it. The window must stay resident — dropping
  // unpersisted uploads would silently lose fleet data.
  IngestConfig C = manualConfig();
  C.RetainWindows = 1;
  IngestService Service(C);

  for (uint64_t Window = 0; Window != 3; ++Window)
    ASSERT_TRUE(
        Service.ingestNow(makeUpload("t0", Window, unsigned(Window))).Accepted);

  IngestStats Stats = Service.stats();
  EXPECT_EQ(Stats.WindowsExpired, 0u);
  EXPECT_GE(Stats.RetentionHeld, 1u);
  EXPECT_EQ(Service.windows().size(), 3u);

  // Every window still answers queries — nothing was shed.
  std::string Error;
  for (uint64_t Window = 0; Window != 3; ++Window) {
    EXPECT_FALSE(Service.queryCctStats(Window, Error).empty());
    EXPECT_TRUE(Error.empty()) << Error;
  }
}
