//===- profdb/Store.h - Artifact files on disk -----------------*- C++ -*-===//
///
/// \file
/// The one file store, shared by the profile repository and the driver's
/// disk run cache: atomic writes (mkdir -p, temp file + rename), whole-file
/// reads, and the age-gated sweep of temps orphaned by crashed writers.
/// For the repository on top: artifact file naming
/// ("ppa-<fnv1a-of-fingerprint>.ppa"), reads that fold I/O failures into
/// the decoder's typed DecodeStatus, and directory listing. The
/// PP_PROFILE_OUT environment knob names the directory every driver run
/// deposits its artifact into.
///
//===----------------------------------------------------------------------===//

#ifndef PP_PROFDB_STORE_H
#define PP_PROFDB_STORE_H

#include "profdb/Artifact.h"

#include <ctime>
#include <string>
#include <vector>

namespace pp {
namespace profdb {

/// "ppa-<16 hex digits>.ppa" derived from the run fingerprint.
std::string artifactFileName(const std::string &Fingerprint);

/// $PP_PROFILE_OUT, or "" when unset (emission disabled).
std::string profileOutDirFromEnv();

/// Writes \p Bytes to "<Path>.tmp.<pid>" and renames it to \p Path,
/// creating the directory and any missing parent first. Returns false
/// with \p Error set on any failure; a half-written file is never left
/// at \p Path.
bool writeFileAtomic(const std::string &Path, const std::vector<uint8_t> &Bytes,
                     std::string &Error);

/// Serialises \p A to \p Path through writeFileAtomic.
bool writeArtifactFile(const std::string &Path, const Artifact &A,
                       std::string &Error);

/// A temp younger than this many seconds is never swept: its writer may
/// still be between open and rename, and the writer pid alone cannot
/// prove otherwise (pids recycle; on a shared filesystem they belong to
/// another host's pid domain entirely).
constexpr time_t StaleTempGraceSeconds = 15 * 60;
/// Past this age a temp is swept even when its recorded pid probes as
/// alive — an atomic write takes milliseconds, so by now the pid has
/// been recycled by an unrelated process (which would otherwise shield
/// dead writers' debris forever).
constexpr time_t StaleTempHardSeconds = 24 * 60 * 60;

/// The grace threshold actually used by the sweep:
/// $PP_COLLECTD_TEMP_GRACE_SECS via the strict env path (junk warns and
/// keeps the default), StaleTempGraceSeconds when unset. It governs
/// artifact repositories and run-cache directories alike. A fleet
/// collector whose uploaders crash often can shorten it; a shared
/// filesystem with slow writers can lengthen it.
time_t staleTempGraceSeconds();
/// The hard-age threshold actually used by the sweep:
/// $PP_COLLECTD_TEMP_HARD_SECS, StaleTempHardSeconds when unset. Never
/// reads below the grace threshold — an inverted pair would sweep temps
/// the grace period promised to keep.
time_t staleTempHardSeconds();

/// Deletes writeFileAtomic's "*.tmp.<pid>" temps in \p Dir whose writer
/// can no longer finish the rename — the debris a writer that crashed between open and
/// rename leaves behind. Staleness is age-first: temps younger than
/// StaleTempGraceSeconds are always kept; older ones are swept once
/// their writer pid probes dead, the kill(pid, 0) probe being only a
/// same-host optimisation that lets a live writer keep its temp until
/// StaleTempHardSeconds. Returns how many files were removed.
/// listArtifactFiles runs this automatically, and so does opening a disk
/// run cache.
size_t sweepStaleTemps(const std::string &Dir);

/// Reads the regular file \p Path whole; false when it cannot be read.
bool readFile(const std::string &Path, std::vector<uint8_t> &Bytes);

/// Reads and decodes \p Path. I/O failures report Unreadable; everything
/// else is the decoder's verdict.
DecodeStatus readArtifactFile(const std::string &Path, Artifact &Out);

/// All "*.ppa" files directly inside \p Dir, as full paths, sorted — the
/// listing order never depends on directory enumeration order.
std::vector<std::string> listArtifactFiles(const std::string &Dir);

} // namespace profdb
} // namespace pp

#endif // PP_PROFDB_STORE_H
