//===- profdb/Artifact.cpp - Persistent profile artifacts ---------------------===//

#include "profdb/Artifact.h"

#include "cct/ImageIO.h"
#include "obs/Obs.h"
#include "ir/Module.h"
#include "support/BinaryIO.h"
#include "support/Checksum.h"

using namespace pp;
using namespace pp::profdb;

namespace {

constexpr uint64_t Magic = 0x50504442; // "PPDB"
// 2: acquisition joined the schema; 3: k-BL (schema K, per-function
// KIters); 4: optional run section (run-cache entries).
constexpr uint64_t Version = 4;

// Minimum encoded sizes (bytes) of variable-count elements, used to bound
// counts before allocation.
constexpr size_t MinFunctionBytes = 8;               // name length
constexpr size_t MinPathProfileBytes = 8 + 1 + 8 + 1 + 8 + 8;
constexpr size_t MinPathEntryBytes = 4 * 8;
constexpr size_t MinEdgeProfileBytes = 8 + 1 + 8 + 8;
// 3 flag bytes + NumPaths, KIters, TableAddr, Stride, EdgeTableAddr,
// chord count, NumSites, and the SiteIsIndirect length: 8 u64 fields.
constexpr size_t MinInstrInfoBytes = 3 + 8 * 8;

/// The header of a single run's artifact: everything but the function
/// names, the path tables and the tree.
Artifact runHeader(const prof::RunOutcome &Outcome,
                   const std::string &Fingerprint, const std::string &Workload,
                   uint64_t Scale, const MetricSchema &Schema) {
  Artifact A;
  A.Fingerprint = Fingerprint;
  A.SourceHash = fnv1a(Fingerprint);
  A.RunCount = 1;
  A.Workload = Workload;
  A.Scale = Scale;
  A.Schema = Schema;
  A.ExecutedInsts = Outcome.Result.ExecutedInsts;
  A.Totals = Outcome.Totals;
  return A;
}

/// What the run section adds to an artifact, written from \p Run.
void writeRunSection(ByteWriter &W, const prof::RunOutcome &Run) {
  W.u8(Run.Result.Ok ? 1 : 0);
  W.u64(Run.Result.ExitValue);
  W.str(Run.Result.Error);

  W.u64(Run.Acq.Traps);
  W.u64(Run.Acq.Samples);
  W.u64(Run.Acq.FramesWalked);
  W.u64(Run.Acq.LogBytes);

  W.u64(Run.EdgeProfiles.size());
  for (const prof::EdgeProfile &Profile : Run.EdgeProfiles) {
    W.u64(Profile.FuncId);
    W.u8(Profile.HasProfile ? 1 : 0);
    W.u64(Profile.Invocations);
    W.u64(Profile.EdgeCounts.size());
    for (uint64_t Count : Profile.EdgeCounts)
      W.u64(Count);
  }

  // Instrumentation metadata (the module itself is not persisted).
  W.u64(Run.Instr.Functions.size());
  for (const prof::FunctionInstrInfo &Info : Run.Instr.Functions) {
    W.u8(Info.Instrumented ? 1 : 0);
    W.u8(Info.HasPathProfile ? 1 : 0);
    W.u64(Info.NumPaths);
    W.u8(Info.Hashed ? 1 : 0);
    W.u64(Info.KIters);
    W.u64(Info.TableAddr);
    W.u64(Info.Stride);
    W.u64(Info.EdgeTableAddr);
    W.u64(Info.ChordEdges.size());
    for (unsigned Edge : Info.ChordEdges)
      W.u64(Edge);
    W.u64(Info.NumSites);
    W.bytes(Info.SiteIsIndirect);
  }
}

DecodeStatus readRunSection(ByteReader &R, prof::RunOutcome &Run) {
  uint8_t Ok;
  if (!R.u8(Ok) || !R.u64(Run.Result.ExitValue) || !R.str(Run.Result.Error))
    return DecodeStatus::Truncated;
  Run.Result.Ok = Ok != 0;

  if (!R.u64(Run.Acq.Traps) || !R.u64(Run.Acq.Samples) ||
      !R.u64(Run.Acq.FramesWalked) || !R.u64(Run.Acq.LogBytes))
    return DecodeStatus::Truncated;

  uint64_t NumEdgeProfiles;
  if (!R.count(NumEdgeProfiles, MinEdgeProfileBytes))
    return DecodeStatus::Truncated;
  Run.EdgeProfiles.resize(NumEdgeProfiles);
  for (prof::EdgeProfile &Profile : Run.EdgeProfiles) {
    uint64_t FuncId, NumCounts;
    uint8_t HasProfile;
    if (!R.u64(FuncId) || !R.u8(HasProfile) || !R.u64(Profile.Invocations) ||
        !R.count(NumCounts, 8))
      return DecodeStatus::Truncated;
    Profile.FuncId = static_cast<unsigned>(FuncId);
    Profile.HasProfile = HasProfile != 0;
    Profile.EdgeCounts.resize(NumCounts);
    for (uint64_t &Count : Profile.EdgeCounts)
      if (!R.u64(Count))
        return DecodeStatus::Truncated;
  }

  uint64_t NumFunctions;
  if (!R.count(NumFunctions, MinInstrInfoBytes))
    return DecodeStatus::Truncated;
  Run.Instr.M = nullptr;
  Run.Instr.Functions.resize(NumFunctions);
  for (prof::FunctionInstrInfo &Info : Run.Instr.Functions) {
    uint8_t Instrumented, HasPathProfile, Hashed;
    uint64_t KIters, Stride, NumChords, NumSites;
    if (!R.u8(Instrumented) || !R.u8(HasPathProfile) ||
        !R.u64(Info.NumPaths) || !R.u8(Hashed) || !R.u64(KIters) ||
        !R.u64(Info.TableAddr) || !R.u64(Stride) ||
        !R.u64(Info.EdgeTableAddr) || !R.count(NumChords, 8))
      return DecodeStatus::Truncated;
    if (KIters == 0)
      return DecodeStatus::Malformed;
    Info.F = nullptr;
    Info.Instrumented = Instrumented != 0;
    Info.HasPathProfile = HasPathProfile != 0;
    Info.Hashed = Hashed != 0;
    Info.KIters = static_cast<unsigned>(KIters);
    Info.Stride = static_cast<unsigned>(Stride);
    Info.ChordEdges.resize(NumChords);
    for (unsigned &Edge : Info.ChordEdges) {
      uint64_t Value;
      if (!R.u64(Value))
        return DecodeStatus::Truncated;
      Edge = static_cast<unsigned>(Value);
    }
    if (!R.u64(NumSites) || !R.bytes(Info.SiteIsIndirect))
      return DecodeStatus::Truncated;
    Info.NumSites = static_cast<unsigned>(NumSites);
  }
  return DecodeStatus::Ok;
}

/// Encodes \p A, except that the function names, path tables and tree are
/// passed apart from it so a single run's artifact can be written straight
/// from its outcome; \p Run, when set, adds the run section.
std::vector<uint8_t>
encode(const Artifact &A, const std::vector<std::string> &Functions,
       const std::vector<prof::FunctionPathProfile> &PathProfiles,
       const cct::CallingContextTree *Tree, const prof::RunOutcome *Run) {
  ByteWriter W;
  W.u64(Magic);
  W.u64(Version);
  W.str(A.Fingerprint);
  W.u64(A.SourceHash);
  W.u64(A.RunCount);
  W.str(A.Workload);
  W.u64(A.Scale);
  W.str(A.Schema.Mode);
  W.str(A.Schema.Pic0);
  W.str(A.Schema.Pic1);
  W.str(A.Schema.Acquisition);
  W.u64(A.Schema.K);
  W.u64(A.ExecutedInsts);

  W.u64(hw::NumEvents);
  for (uint64_t Total : A.Totals)
    W.u64(Total);

  W.u64(Functions.size());
  for (const std::string &Name : Functions)
    W.str(Name);

  W.u64(PathProfiles.size());
  for (const prof::FunctionPathProfile &Profile : PathProfiles) {
    W.u64(Profile.FuncId);
    W.u8(Profile.HasProfile ? 1 : 0);
    W.u64(Profile.NumPaths);
    W.u8(Profile.Hashed ? 1 : 0);
    W.u64(Profile.KIters);
    W.u64(Profile.Paths.size());
    for (const prof::PathEntry &Entry : Profile.Paths) {
      W.u64(Entry.PathSum);
      W.u64(Entry.Freq);
      W.u64(Entry.Metric0);
      W.u64(Entry.Metric1);
    }
  }

  W.u8(Tree ? 1 : 0);
  if (Tree)
    cct::writeTreeImage(W, Tree->image());

  W.u8(Run ? 1 : 0);
  if (Run)
    writeRunSection(W, *Run);

  // Integrity trailer over everything above.
  uint32_t Crc = crc32(W.Bytes.data(), W.Bytes.size());
  for (unsigned Index = 0; Index != 4; ++Index)
    W.u8(static_cast<uint8_t>(Crc >> (8 * Index)));
  obs::add(obs::Counter::ProfDbBytesEncoded, W.Bytes.size());
  return std::move(W.Bytes);
}

/// Decodes an artifact into \p Out. With \p Run set the bytes must be a
/// current-version run-cache entry, whose run section lands in \p Run;
/// without it any supported version decodes and a run section is dropped.
DecodeStatus decode(const std::vector<uint8_t> &Bytes, Artifact &Out,
                    prof::RunOutcome *Run) {
  obs::add(obs::Counter::ProfDbBytesDecoded, Bytes.size());
  // Fixed header (magic + version + fingerprint length) plus CRC trailer.
  if (Bytes.size() < 3 * 8 + 4)
    return DecodeStatus::TooShort;

  // Identify the format before checksumming, so a foreign, stale or
  // future-versioned file reports its real problem, not a CRC error.
  ByteReader Header(Bytes.data(), Bytes.size());
  uint64_t FileMagic, FileVersion;
  (void)Header.u64(FileMagic);
  (void)Header.u64(FileVersion);
  if (FileMagic != Magic)
    return DecodeStatus::BadMagic;
  // Version 1 predates the acquisition schema field (those artifacts are
  // all exact), version 2 predates k-BL (all classic k=1) and version 3
  // the run section; all three decode with the defaults. A run-cache
  // entry is rewritten at will, so it must be current.
  if (Run ? FileVersion != Version
          : (FileVersion == 0 || FileVersion > Version))
    return DecodeStatus::BadVersion;

  size_t PayloadSize = Bytes.size() - 4;
  uint32_t Stored = 0;
  for (unsigned Index = 0; Index != 4; ++Index)
    Stored |= uint32_t(Bytes[PayloadSize + Index]) << (8 * Index);
  if (crc32(Bytes.data(), PayloadSize) != Stored)
    return DecodeStatus::BadChecksum;

  ByteReader R(Bytes.data(), PayloadSize);
  uint64_t Skip;
  (void)R.u64(Skip); // magic, validated above
  (void)R.u64(Skip); // version, validated above

  if (!R.str(Out.Fingerprint) || !R.u64(Out.SourceHash) ||
      !R.u64(Out.RunCount) || !R.str(Out.Workload) || !R.u64(Out.Scale) ||
      !R.str(Out.Schema.Mode) || !R.str(Out.Schema.Pic0) ||
      !R.str(Out.Schema.Pic1))
    return DecodeStatus::Truncated;
  Out.Schema.Acquisition = "exact";
  if (FileVersion >= 2 && !R.str(Out.Schema.Acquisition))
    return DecodeStatus::Truncated;
  Out.Schema.K = 1;
  if (FileVersion >= 3) {
    uint64_t K;
    if (!R.u64(K))
      return DecodeStatus::Truncated;
    if (K == 0)
      return DecodeStatus::Malformed;
    Out.Schema.K = static_cast<unsigned>(K);
  }
  if (!R.u64(Out.ExecutedInsts))
    return DecodeStatus::Truncated;

  uint64_t NumTotals;
  if (!R.u64(NumTotals))
    return DecodeStatus::Truncated;
  if (NumTotals != hw::NumEvents)
    return DecodeStatus::Malformed;
  for (uint64_t &Total : Out.Totals)
    if (!R.u64(Total))
      return DecodeStatus::Truncated;

  uint64_t NumFunctions;
  if (!R.count(NumFunctions, MinFunctionBytes))
    return DecodeStatus::Truncated;
  Out.Functions.resize(NumFunctions);
  for (std::string &Name : Out.Functions)
    if (!R.str(Name))
      return DecodeStatus::Truncated;

  uint64_t NumPathProfiles;
  if (!R.count(NumPathProfiles, MinPathProfileBytes))
    return DecodeStatus::Truncated;
  Out.PathProfiles.resize(NumPathProfiles);
  for (prof::FunctionPathProfile &Profile : Out.PathProfiles) {
    uint64_t FuncId, NumEntries;
    uint8_t HasProfile, Hashed;
    if (!R.u64(FuncId) || !R.u8(HasProfile) || !R.u64(Profile.NumPaths) ||
        !R.u8(Hashed))
      return DecodeStatus::Truncated;
    Profile.KIters = 1;
    if (FileVersion >= 3) {
      uint64_t KIters;
      if (!R.u64(KIters))
        return DecodeStatus::Truncated;
      if (KIters == 0)
        return DecodeStatus::Malformed;
      Profile.KIters = static_cast<unsigned>(KIters);
    }
    if (!R.count(NumEntries, MinPathEntryBytes))
      return DecodeStatus::Truncated;
    Profile.FuncId = static_cast<unsigned>(FuncId);
    Profile.HasProfile = HasProfile != 0;
    Profile.Hashed = Hashed != 0;
    Profile.Paths.resize(NumEntries);
    for (prof::PathEntry &Entry : Profile.Paths)
      if (!R.u64(Entry.PathSum) || !R.u64(Entry.Freq) ||
          !R.u64(Entry.Metric0) || !R.u64(Entry.Metric1))
        return DecodeStatus::Truncated;
  }

  uint8_t HasTree;
  if (!R.u8(HasTree))
    return DecodeStatus::Truncated;
  Out.Tree = nullptr;
  if (HasTree) {
    cct::TreeImage Image;
    if (DecodeStatus Status = cct::readTreeImage(R, Image);
        Status != DecodeStatus::Ok)
      return Status;
    Out.Tree = cct::CallingContextTree::fromImage(Image);
    if (!Out.Tree)
      return DecodeStatus::Malformed;
  }

  uint8_t HasRun = 0;
  if (FileVersion >= 4 && !R.u8(HasRun))
    return DecodeStatus::Truncated;
  if (Run && !HasRun)
    return DecodeStatus::Malformed;
  if (HasRun) {
    prof::RunOutcome Dropped;
    if (DecodeStatus Status = readRunSection(R, Run ? *Run : Dropped);
        Status != DecodeStatus::Ok)
      return Status;
  }
  return R.atEnd() ? DecodeStatus::Ok : DecodeStatus::TrailingBytes;
}

} // namespace

MetricSchema profdb::MetricSchema::of(const prof::ProfileConfig &Config,
                                      const std::string &Acquisition) {
  MetricSchema Schema;
  Schema.Mode = prof::modeName(Config.M);
  Schema.Pic0 = hw::eventName(Config.Pic0);
  Schema.Pic1 = hw::eventName(Config.Pic1);
  Schema.Acquisition = Acquisition;
  Schema.K = Config.K;
  return Schema;
}

uint64_t profdb::fnv1a(const std::string &Text) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (char C : Text) {
    Hash ^= static_cast<uint8_t>(C);
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

std::vector<uint8_t> profdb::encodeArtifact(const Artifact &A) {
  return encode(A, A.Functions, A.PathProfiles, A.Tree.get(), nullptr);
}

DecodeStatus profdb::decodeArtifact(const std::vector<uint8_t> &Bytes,
                                    Artifact &Out) {
  return decode(Bytes, Out, nullptr);
}

std::vector<uint8_t> profdb::encodeRunArtifact(const prof::RunOutcome &Outcome,
                                               const std::string &Fingerprint,
                                               const std::string &Workload,
                                               uint64_t Scale,
                                               const MetricSchema &Schema) {
  return encode(runHeader(Outcome, Fingerprint, Workload, Scale, Schema),
                Outcome.Functions, Outcome.PathProfiles, Outcome.Tree.get(),
                nullptr);
}

std::vector<uint8_t> profdb::encodeRunEntry(const prof::RunOutcome &Outcome,
                                            const std::string &Fingerprint,
                                            const std::string &Workload,
                                            uint64_t Scale,
                                            const MetricSchema &Schema) {
  return encode(runHeader(Outcome, Fingerprint, Workload, Scale, Schema),
                Outcome.Functions, Outcome.PathProfiles, Outcome.Tree.get(),
                &Outcome);
}

DecodeStatus profdb::decodeRunEntry(const std::vector<uint8_t> &Bytes,
                                    const std::string &Fingerprint,
                                    prof::RunOutcome &Out) {
  Artifact A;
  if (DecodeStatus Status = decode(Bytes, A, &Out); Status != DecodeStatus::Ok)
    return Status;
  if (A.Fingerprint != Fingerprint)
    return DecodeStatus::FingerprintMismatch;
  Out.Result.ExecutedInsts = A.ExecutedInsts;
  Out.Totals = A.Totals;
  Out.Functions = std::move(A.Functions);
  Out.PathProfiles = std::move(A.PathProfiles);
  Out.Tree = std::move(A.Tree);
  return DecodeStatus::Ok;
}

Artifact profdb::artifactFromOutcome(const prof::RunOutcome &Outcome,
                                     const ir::Module &M,
                                     const std::string &Fingerprint,
                                     const std::string &Workload,
                                     uint64_t Scale,
                                     const prof::ProfileConfig &Config,
                                     const std::string &Acquisition) {
  Artifact A = runHeader(Outcome, Fingerprint, Workload, Scale,
                         MetricSchema::of(Config, Acquisition));
  A.Functions.reserve(M.numFunctions());
  for (size_t Id = 0; Id != M.numFunctions(); ++Id)
    A.Functions.push_back(M.function(Id)->name());
  A.PathProfiles = Outcome.PathProfiles;
  if (Outcome.Tree)
    A.Tree = cct::CallingContextTree::fromImage(Outcome.Tree->image());
  return A;
}

Artifact profdb::cloneArtifact(const Artifact &A) {
  Artifact Copy;
  Copy.Fingerprint = A.Fingerprint;
  Copy.SourceHash = A.SourceHash;
  Copy.RunCount = A.RunCount;
  Copy.Workload = A.Workload;
  Copy.Scale = A.Scale;
  Copy.Schema = A.Schema;
  Copy.ExecutedInsts = A.ExecutedInsts;
  Copy.Totals = A.Totals;
  Copy.Functions = A.Functions;
  Copy.PathProfiles = A.PathProfiles;
  if (A.Tree)
    Copy.Tree = cct::CallingContextTree::fromImage(A.Tree->image());
  return Copy;
}
