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

/// Reads the regular file \p Path whole into \p Bytes, which ends up
/// exactly the file's size (its old content and length are replaced, so
/// a loop may reuse one buffer). One open, one fstat and a read sized by
/// it. False on any I/O error, and for anything but a regular file,
/// which is refused without waiting on it: a FIFO returns at once.
bool readFile(const std::string &Path, std::vector<uint8_t> &Bytes);

/// Reads and decodes \p Path. I/O failures report Unreadable; everything
/// else is the decoder's verdict.
DecodeStatus readArtifactFile(const std::string &Path, Artifact &Out);

/// All "*.ppa" regular files (or links to one) directly inside \p Dir, as
/// full paths, sorted — the listing order never depends on directory
/// enumeration order.
std::vector<std::string> listArtifactFiles(const std::string &Dir);

} // namespace profdb
} // namespace pp

#endif // PP_PROFDB_STORE_H
