//===- tests/CollectdTest.cpp - fleet ingest service -----------------------------===//
//
// The collector's contract: every upload gets a typed verdict; a corrupt
// or cross-acquisition upload rejects exactly that artifact and provably
// leaves the window's fold byte-identical to a service that never saw
// it; window folds are bit-identical under any arrival order or thread
// count, and equal a flat merge of their leaves; quotas and queue
// backpressure bound the fleet; persisted windows are ordinary .ppa
// artifacts; a query answer kept between uploads is byte-identical to a
// fresh rendering of the fold.
//
//===----------------------------------------------------------------------===//

#include "cct/CallingContextTree.h"
#include "collectd/Ingest.h"
#include "driver/Driver.h"
#include "ir/Parser.h"
#include "prof/Session.h"
#include "profdb/Merge.h"
#include "profdb/Report.h"
#include "profdb/Store.h"

#include "CraftedTrees.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
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

/// An encoded artifact of \p Workload profiled in \p M under
/// \p Fingerprint (each workload and mode runs once). \p Acquisition
/// tags the schema only — the measurement is the same exact run either
/// way, which is exactly what the cross-acquisition gate must catch.
std::vector<uint8_t>
encodedArtifact(const std::string &Fingerprint, const std::string &Acquisition,
                const std::string &Workload = "130.li",
                prof::Mode M = prof::Mode::ContextFlowHw) {
  static std::map<std::pair<std::string, prof::Mode>, driver::OutcomePtr> Runs;
  driver::OutcomePtr &Run = Runs[{Workload, M}];
  if (!Run) {
    driver::Driver D(/*DiskDir=*/"", /*Threads=*/0);
    driver::RunPlan Plan;
    Plan.Workload = Workload;
    Plan.Options.Config.M = M;
    Run = D.run(Plan);
    EXPECT_TRUE(Run && Run->Result.Ok);
  }
  prof::ProfileConfig Config;
  Config.M = M;
  return profdb::encodeRunArtifact(
      *Run, Fingerprint, Workload, 1,
      profdb::MetricSchema::of(Config, Acquisition));
}

Upload makeUpload(const std::string &Tenant, uint64_t Window,
                  unsigned Serial, const std::string &Acq = "exact") {
  return Upload{Tenant, Window,
                encodedArtifact("fleet;u" + std::to_string(Serial), Acq)};
}

} // namespace

//===----------------------------------------------------------------------===//
// Rejection isolation — the acceptance criterion
//===----------------------------------------------------------------------===//

TEST(CollectdIngestTest, CorruptUploadRejectsOnlyThatArtifact) {
  IngestService Clean(IngestConfig{});
  IngestService Faulty(IngestConfig{});

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

  // The service keeps admitting: a clean upload after the rejected one
  // is accepted.
  Upload After = makeUpload("t0", 7, 5);
  EXPECT_TRUE(Clean.ingestNow(After).Accepted);
  EXPECT_TRUE(Faulty.ingestNow(std::move(After)).Accepted);

  IngestStats Stats = Faulty.stats();
  EXPECT_EQ(Stats.Accepted, 6u);
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
  IngestService Clean(IngestConfig{});
  IngestService Faulty(IngestConfig{});

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

//===----------------------------------------------------------------------===//
// Determinism of the window folds
//===----------------------------------------------------------------------===//

TEST(CollectdIngestTest, ArrivalOrderDoesNotChangeBytes) {
  constexpr unsigned NumUploads = 9;
  std::vector<Upload> Uploads;
  for (unsigned Serial = 0; Serial != NumUploads; ++Serial)
    Uploads.push_back(makeUpload("t0", 3, Serial));

  auto FoldBytes = [&](std::vector<Upload> Ups) {
    IngestService Service(IngestConfig{});
    for (Upload &U : Ups)
      EXPECT_TRUE(Service.ingestNow(std::move(U)).Accepted);
    std::string Error;
    auto Bytes = Service.windowBytes(3, Error);
    EXPECT_TRUE(Error.empty()) << Error;
    return Bytes;
  };

  std::vector<std::vector<uint8_t>> Reference = FoldBytes(Uploads);
  ASSERT_FALSE(Reference.empty());

  // Reversed arrivals.
  std::vector<Upload> Reversed(Uploads.rbegin(), Uploads.rend());
  EXPECT_EQ(FoldBytes(std::move(Reversed)), Reference);
}

TEST(CollectdFoldTest, WindowBytesEqualFlatMergeOfLeaves) {
  constexpr unsigned NumLeaves = 8;
  IngestService Service(IngestConfig{});
  std::vector<profdb::Artifact> Flat;
  for (unsigned Serial = 0; Serial != NumLeaves; ++Serial) {
    Upload U = makeUpload("t0", 3, Serial);
    profdb::Artifact A;
    ASSERT_EQ(profdb::decodeArtifact(U.Bytes, A), profdb::DecodeStatus::Ok);
    Flat.push_back(std::move(A));
    ASSERT_TRUE(Service.ingestNow(std::move(U)).Accepted);
  }

  std::string Error;
  std::vector<std::vector<uint8_t>> Folded = Service.windowBytes(3, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  profdb::Artifact FlatMerged;
  ASSERT_TRUE(profdb::mergeAll(std::move(Flat), FlatMerged, Error, 1))
      << Error;
  EXPECT_EQ(Folded, std::vector<std::vector<uint8_t>>{
                        profdb::encodeArtifact(FlatMerged)});
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

/// An artifact that decodes cleanly and lands in the same shape group as
/// the good uploads — the group key sees only CCT *presence*, not its
/// geometry — but cannot merge with them: its CCT hash threshold differs,
/// which the fold rejects as a CCT geometry mismatch.
std::vector<uint8_t> incompatibleBytes() {
  profdb::Artifact A = decodedArtifact(97);
  EXPECT_NE(A.Tree, nullptr);
  return profdb::encodeArtifact(testutil::withEditedTree(
      A, [](testutil::TreeImage &Image) { Image.HashThreshold += 1; }));
}

} // namespace

TEST(CollectdFoldTest, IncompatibleAddRejectsAndLeavesFoldUntouched) {
  profdb::Fold Fold;
  std::string Error;
  for (unsigned Serial = 0; Serial != 3; ++Serial)
    ASSERT_TRUE(Fold.add(decodedArtifact(Serial), Error)) << Error;
  std::vector<uint8_t> BeforeBytes = profdb::encodeArtifact(Fold.result());

  // The fold's checks must reject the incompatible artifact before the
  // fold is touched.
  profdb::Artifact Bad;
  ASSERT_EQ(profdb::decodeArtifact(incompatibleBytes(), Bad),
            profdb::DecodeStatus::Ok);
  EXPECT_FALSE(Fold.add(std::move(Bad), Error));
  EXPECT_NE(Error.find("CCT geometry mismatch"), std::string::npos) << Error;

  // Nothing moved: the input count and the folded bytes are exactly as if
  // the artifact was never offered.
  EXPECT_EQ(Fold.inputs(), 3u);
  EXPECT_EQ(profdb::encodeArtifact(Fold.result()), BeforeBytes);

  // And the fold still accepts compatible inputs afterwards.
  ASSERT_TRUE(Fold.add(decodedArtifact(3), Error)) << Error;
  EXPECT_EQ(Fold.inputs(), 4u);
}

TEST(CollectdIngestTest, MergeIncompatibleUploadRejectsAtAdmission) {
  IngestService Clean(IngestConfig{});
  IngestService Faulty(IngestConfig{});

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
             const std::function<void(testutil::TreeImage &)> &Edit) {
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
  profdb::Fold Fold;
  std::string Error;
  EXPECT_FALSE(Fold.add(std::move(A), Error));
  EXPECT_NE(Error.find("slot count"), std::string::npos) << Error;
  EXPECT_EQ(Fold.inputs(), 0u);

  IngestService Service(IngestConfig{});
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
  IngestService Clean(IngestConfig{});
  IngestService Faulty(IngestConfig{});
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

TEST(CollectdFoldTest, SingleUploadWindowIsTheUploadItself) {
  Upload U = makeUpload("t0", 4, 0);
  const std::vector<uint8_t> Bytes = U.Bytes;
  IngestService Service(IngestConfig{});
  ASSERT_TRUE(Service.ingestNow(std::move(U)).Accepted);
  std::string Error;
  EXPECT_EQ(Service.windowBytes(4, Error),
            std::vector<std::vector<uint8_t>>{Bytes});
  EXPECT_TRUE(Error.empty()) << Error;
}

namespace {

/// A loop-free program: every function keeps its path count at any k, so
/// only the schema's k tells a k=1 profile from a k=2 one.
constexpr const char *LoopFreeProgram = R"(func @fib(1) regs=16 {
entry:
  cmplt r1, r0, 2
  condbr r1, @base, @rec
base:
  ret r0
rec:
  sub r2, r0, 1
  call r3, @fib (r2)
  sub r4, r0, 2
  call r5, @fib (r4)
  add r6, r3, r5
  ret r6
}

func @main(0) regs=4 {
entry:
  mov r0, 12
  call r1, @fib (r0)
  ret r1
}

main @main
)";

profdb::Artifact loopFreeArtifact(const ir::Module &M, unsigned K) {
  prof::SessionOptions Options;
  Options.Config.M = prof::Mode::FlowHw;
  Options.Config.K = K;
  prof::RunOutcome Run = prof::runProfile(M, Options);
  EXPECT_TRUE(Run.Result.Ok) << Run.Result.Error;
  return profdb::artifactFromOutcome(Run, M, "loopfree;k=" + std::to_string(K),
                                     "loopfree", 1, Options.Config);
}

} // namespace

TEST(CollectdIngestTest, LoopFreeUploadsAtTwoKsFoldInTwoGroups) {
  ir::ParseResult Parsed = ir::parseModule(LoopFreeProgram);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  profdb::Artifact K1 = loopFreeArtifact(*Parsed.M, 1);
  profdb::Artifact K2 = loopFreeArtifact(*Parsed.M, 2);
  // The two profiles agree on every per-function path count; only k
  // differs, and a k=2 sum must never fold into a k=1 one.
  ASSERT_EQ(K1.PathProfiles.size(), K2.PathProfiles.size());
  for (size_t F = 0; F != K1.PathProfiles.size(); ++F)
    EXPECT_EQ(K1.PathProfiles[F].NumPaths, K2.PathProfiles[F].NumPaths);

  IngestService Service(IngestConfig{});
  for (const profdb::Artifact *A : {&K1, &K2, &K2}) {
    UploadResult Verdict =
        Service.ingestNow(Upload{"t0", 6, profdb::encodeArtifact(*A)});
    EXPECT_TRUE(Verdict.Accepted) << rejectReasonName(Verdict.Reason);
  }
  std::string Error;
  std::vector<std::vector<uint8_t>> Groups = Service.windowBytes(6, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  ASSERT_EQ(Groups.size(), 2u);
  std::vector<unsigned> Ks;
  std::vector<uint64_t> Runs;
  for (const std::vector<uint8_t> &Bytes : Groups) {
    profdb::Artifact A;
    ASSERT_EQ(profdb::decodeArtifact(Bytes, A), profdb::DecodeStatus::Ok);
    Ks.push_back(A.Schema.K);
    Runs.push_back(A.RunCount);
  }
  // Groups come in key order, and k precedes the program shape there.
  EXPECT_EQ(Ks, (std::vector<unsigned>{1, 2}));
  EXPECT_EQ(Runs, (std::vector<uint64_t>{1, 2}));
}

//===----------------------------------------------------------------------===//
// Quotas
//===----------------------------------------------------------------------===//

TEST(CollectdIngestTest, QuotaBoundsEachTenantPerWindow) {
  IngestConfig C;
  C.TenantWindowQuota = 2;
  IngestService Service(C);

  unsigned Serial = 0;
  for (unsigned I = 0; I != 4; ++I) {
    UploadResult R = Service.ingestNow(makeUpload("loud", 0, Serial++));
    EXPECT_EQ(R.Accepted, I < 2);
    if (!R.Accepted) {
      EXPECT_EQ(R.Reason, RejectReason::QuotaExceeded);
    }
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

//===----------------------------------------------------------------------===//
// Queries and persistence
//===----------------------------------------------------------------------===//

TEST(CollectdIngestTest, QueriesRenderAndUnknownWindowIsTyped) {
  IngestService Service(IngestConfig{});
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

//===----------------------------------------------------------------------===//
// Kept query answers
//===----------------------------------------------------------------------===//

namespace {

/// The limits a query sequence alternates between, so a kept answer is
/// asked for under another limit than it was rendered for.
constexpr size_t QueryLimits[] = {5, 10, 5};

/// Every answer \p S gives for \p Window, in a fixed order: top paths at
/// each of QueryLimits, top procedures at each, and the CCT statistics.
std::vector<std::string> answersOf(IngestService &S, uint64_t Window) {
  std::vector<std::string> Out;
  std::string Error;
  for (size_t Limit : QueryLimits) {
    Out.push_back(S.queryTopPaths(Window, Limit, Error));
    EXPECT_TRUE(Error.empty()) << Error;
  }
  for (size_t Limit : QueryLimits) {
    Out.push_back(S.queryTopProcs(Window, Limit, Error));
    EXPECT_TRUE(Error.empty()) << Error;
  }
  Out.push_back(S.queryCctStats(Window, Error));
  EXPECT_TRUE(Error.empty()) << Error;
  return Out;
}

/// The same answers as pp-report renders them: per shape group, in key
/// order, the profdb renderers over the mergeAll of the group's uploads.
std::vector<std::string> reportOf(const std::vector<Upload> &Uploads) {
  std::map<std::string, std::vector<profdb::Artifact>> Groups;
  for (const Upload &U : Uploads) {
    profdb::Artifact A;
    EXPECT_EQ(profdb::decodeArtifact(U.Bytes, A), profdb::DecodeStatus::Ok);
    std::string Key = profdb::shapeKey(A);
    Groups[Key].push_back(std::move(A));
  }
  std::vector<profdb::Artifact> Merged;
  for (auto &[Key, Shards] : Groups) {
    Merged.emplace_back();
    std::string Error;
    EXPECT_TRUE(profdb::mergeAll(std::move(Shards), Merged.back(), Error, 1))
        << Error;
  }
  auto Render = [&](const auto &Report) {
    std::string Text;
    for (const profdb::Artifact &A : Merged)
      Text += Report(A) + "\n";
    return Text;
  };
  std::vector<std::string> Out;
  for (size_t Limit : QueryLimits)
    Out.push_back(Render([Limit](const profdb::Artifact &A) {
      return profdb::reportTopPaths(A, Limit);
    }));
  for (size_t Limit : QueryLimits)
    Out.push_back(Render([Limit](const profdb::Artifact &A) {
      return profdb::reportTopProcs(A, Limit);
    }));
  Out.push_back(Render(
      [](const profdb::Artifact &A) { return profdb::reportCctStats(A); }));
  return Out;
}

/// An upload in a second shape group beside 130.li's: 126.gcc's Flow+HW
/// profile has more hot paths and procedures than the smallest limit
/// QueryLimits asks for, so answers for different limits differ.
Upload gccUpload(uint64_t Window, unsigned Serial) {
  return Upload{"t0", Window,
                encodedArtifact("fleet;gcc" + std::to_string(Serial),
                                "exact", "126.gcc", prof::Mode::FlowHw)};
}

} // namespace

TEST(CollectdAnswerTest, AnswersFollowEveryAcceptedUpload) {
  // Uploads alternate between two groups, so each query finds one group
  // changed and the other's answers kept.
  IngestService Service(IngestConfig{});
  std::vector<Upload> Seen;
  std::vector<std::string> Before;
  for (unsigned Serial = 0; Serial != 5; ++Serial) {
    Upload U = Serial % 2 ? gccUpload(8, Serial) : makeUpload("t0", 8, Serial);
    Seen.push_back(U);
    ASSERT_TRUE(Service.ingestNow(std::move(U)).Accepted);

    // Asked twice: once rendered after the upload, once kept.
    std::vector<std::string> Answers = answersOf(Service, 8);
    EXPECT_EQ(answersOf(Service, 8), Answers) << "upload " << Serial;

    // A service that never answered before, fed the same uploads.
    IngestService Fresh(IngestConfig{});
    for (const Upload &Prior : Seen)
      ASSERT_TRUE(Fresh.ingestNow(Prior).Accepted);
    EXPECT_EQ(answersOf(Fresh, 8), Answers) << "upload " << Serial;
    EXPECT_EQ(reportOf(Seen), Answers) << "upload " << Serial;

    // Every answer names each group's run count, so an answer kept
    // across the upload would have shown above.
    for (size_t I = 0; I != Before.size(); ++I) {
      EXPECT_NE(Answers[I], Before[I]) << "upload " << Serial;
    }
    Before = std::move(Answers);
  }
  // The limits matter: at least one of the groups has more rows than the
  // smallest limit.
  EXPECT_NE(Before[0], Before[1]);
  EXPECT_NE(Before[3], Before[4]);
}

TEST(CollectdAnswerTest, RejectedUploadsLeaveEveryAnswerByteIdentical) {
  IngestService Service(IngestConfig{});
  for (unsigned Serial = 0; Serial != 3; ++Serial) {
    ASSERT_TRUE(Service.ingestNow(makeUpload("t0", 9, Serial)).Accepted);
    ASSERT_TRUE(Service.ingestNow(gccUpload(9, Serial)).Accepted);
  }
  const std::vector<std::string> Answers = answersOf(Service, 9);

  Upload Corrupt = makeUpload("t0", 9, 50);
  Corrupt.Bytes[Corrupt.Bytes.size() / 2] ^= 0x10;
  const std::pair<Upload, RejectReason> Rejected[] = {
      {std::move(Corrupt), RejectReason::Corrupt},
      {makeUpload("t0", 9, 51, "overflow"), RejectReason::CrossAcquisition},
      {Upload{"t0", 9, incompatibleBytes()}, RejectReason::MergeFailed},
  };
  for (const auto &[U, Reason] : Rejected) {
    UploadResult Verdict = Service.ingestNow(U);
    EXPECT_FALSE(Verdict.Accepted);
    EXPECT_EQ(Verdict.Reason, Reason);
    EXPECT_EQ(answersOf(Service, 9), Answers) << rejectReasonName(Reason);
  }
}

TEST(CollectdAnswerTest, RetentionDroppedWindowAnswersNoSuchWindow) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());
  IngestConfig C;
  C.StoreDir = Dir;
  C.RetainWindows = 1;
  IngestService Service(C);
  ASSERT_TRUE(Service.ingestNow(makeUpload("t0", 1, 0)).Accepted);
  ASSERT_FALSE(answersOf(Service, 1).front().empty());

  // Window 2 pushes window 1, answers and all, out of residency.
  ASSERT_TRUE(Service.ingestNow(makeUpload("t0", 2, 1)).Accepted);
  ASSERT_EQ(Service.windows(), (std::vector<uint64_t>{2}));
  std::string Error;
  EXPECT_EQ(Service.queryTopPaths(1, 5, Error), "");
  EXPECT_NE(Error.find("no such window 1"), std::string::npos) << Error;
  Error.clear();
  EXPECT_EQ(Service.queryTopProcs(1, 5, Error), "");
  EXPECT_NE(Error.find("no such window 1"), std::string::npos) << Error;
  Error.clear();
  EXPECT_EQ(Service.queryCctStats(1, Error), "");
  EXPECT_NE(Error.find("no such window 1"), std::string::npos) << Error;

  removeDir(Dir);
}

TEST(CollectdIngestTest, PersistWritesOrdinaryArtifacts) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  IngestConfig C;
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
  IngestConfig C;
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
  IngestConfig C;
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

  IngestConfig C;
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
  IngestConfig C;
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
