//===- profdb/Store.cpp - Artifact files on disk ------------------------------===//

#include "profdb/Store.h"

#include "support/Format.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <memory>
#include <sys/stat.h>
#include <unistd.h>

using namespace pp;
using namespace pp::profdb;

std::string profdb::artifactFileName(const std::string &Fingerprint) {
  return formatString("ppa-%016llx.ppa",
                      static_cast<unsigned long long>(fnv1a(Fingerprint)));
}

std::string profdb::profileOutDirFromEnv() {
  const char *Dir = std::getenv("PP_PROFILE_OUT");
  return Dir ? Dir : "";
}

namespace {

bool makeDirs(const std::string &Dir, std::string &Error) {
  if (Dir.empty())
    return true;
  // Create each prefix in turn, mkdir -p style: a nested repository
  // directory (PP_PROFILE_OUT=a/b/c, a collectd window directory) must
  // not require its parents to pre-exist. EEXIST is fine at every level;
  // a component that exists as a regular file surfaces as the final
  // open/rename failure with that path in the message.
  size_t Pos = Dir[0] == '/' ? 1 : 0;
  while (true) {
    size_t Slash = Dir.find('/', Pos);
    std::string Prefix =
        Slash == std::string::npos ? Dir : Dir.substr(0, Slash);
    if (!Prefix.empty() && Prefix != "." && mkdir(Prefix.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      Error = "cannot create directory '" + Prefix + "'";
      return false;
    }
    if (Slash == std::string::npos)
      return true;
    Pos = Slash + 1;
  }
}

/// True when \p Name is a writeFileAtomic temp ("<base>.tmp.<pid>");
/// \p Pid receives the recorded writer pid.
bool parseTempName(const std::string &Name, pid_t &Pid) {
  static const char Marker[] = ".tmp.";
  size_t At = Name.rfind(Marker);
  if (At == std::string::npos)
    return false;
  std::string PidText = Name.substr(At + sizeof(Marker) - 1);
  if (PidText.empty() ||
      PidText.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  long Value = std::strtol(PidText.c_str(), nullptr, 10);
  if (errno != 0 || Value <= 0)
    return false;
  Pid = static_cast<pid_t>(Value);
  return true;
}

/// Whether the temp at \p Path (writer \p Pid) can be reclaimed. Age is
/// the primary signal: a temp younger than the grace period is always
/// kept, whatever the pid probe says — on a shared filesystem the pid of
/// a live writer on another host reads as dead, and sweeping it would
/// race the writer's own rename. Past the grace period the temp goes as
/// soon as the pid probes dead; a probe that says "alive" (which may be
/// an unrelated process that recycled the number) only defers the sweep
/// until the hard age limit.
bool isStaleTemp(const std::string &Path, pid_t Pid) {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0)
    return false;
  time_t Age = ::time(nullptr) - St.st_mtime;
  if (Age < StaleTempGraceSeconds)
    return false;
  if (Age >= StaleTempHardSeconds)
    return true;
  return ::kill(Pid, 0) != 0 && errno == ESRCH;
}

} // namespace

bool profdb::writeFileAtomic(const std::string &Path,
                             const std::vector<uint8_t> &Bytes,
                             std::string &Error) {
  size_t Slash = Path.find_last_of('/');
  if (Slash != std::string::npos && Slash != 0)
    if (!makeDirs(Path.substr(0, Slash), Error))
      return false;

  // Write-to-temp + rename: a crash or concurrent writer never leaves a
  // torn file under the final name (identical inputs produce identical
  // bytes, so racing writers are harmless).
  std::string Temp = Path + ".tmp." + std::to_string(getpid());
  {
    std::ofstream Out(Temp, std::ios::binary | std::ios::trunc);
    if (!Out) {
      Error = "cannot open '" + Temp + "' for writing";
      return false;
    }
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
    if (!Out) {
      Out.close();
      std::remove(Temp.c_str());
      Error = "short write to '" + Temp + "'";
      return false;
    }
  }
  if (std::rename(Temp.c_str(), Path.c_str()) != 0) {
    std::remove(Temp.c_str());
    Error = "cannot rename '" + Temp + "' to '" + Path + "'";
    return false;
  }
  return true;
}

bool profdb::writeArtifactFile(const std::string &Path, const Artifact &A,
                               std::string &Error) {
  return writeFileAtomic(Path, encodeArtifact(A), Error);
}

bool profdb::readFile(const std::string &Path, std::vector<uint8_t> &Bytes) {
  // O_NONBLOCK makes the open itself unable to wait: a FIFO named *.ppa
  // opens at once instead of blocking for a writer, and fstat refuses it
  // with every other non-regular file. Reads of a regular file ignore it.
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK | O_NOCTTY);
  if (Fd < 0)
    return false;
  auto Close = [](int *F) { ::close(*F); };
  std::unique_ptr<int, decltype(Close)> Closer(&Fd, Close);
  struct stat St {};
  if (::fstat(Fd, &St) != 0 || !S_ISREG(St.st_mode))
    return false;
  // One sized read; a file that shrank since fstat ends early at EOF.
  Bytes.resize(static_cast<size_t>(St.st_size));
  size_t Got = 0;
  while (Got != Bytes.size()) {
    ssize_t N = ::read(Fd, Bytes.data() + Got, Bytes.size() - Got);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0)
      return false;
    if (N == 0)
      break;
    Got += static_cast<size_t>(N);
  }
  Bytes.resize(Got);
  return true;
}

DecodeStatus profdb::readArtifactFile(const std::string &Path,
                                      Artifact &Out) {
  std::vector<uint8_t> Bytes;
  if (!readFile(Path, Bytes))
    return DecodeStatus::Unreadable;
  return decodeArtifact(Bytes, Out);
}

size_t profdb::sweepStaleTemps(const std::string &Dir) {
  size_t Swept = 0;
  DIR *D = opendir(Dir.c_str());
  if (!D)
    return Swept;
  std::vector<std::string> Stale;
  while (dirent *Entry = readdir(D)) {
    pid_t Pid;
    std::string Path = Dir + "/" + Entry->d_name;
    if (parseTempName(Entry->d_name, Pid) && isStaleTemp(Path, Pid))
      Stale.push_back(std::move(Path));
  }
  closedir(D);
  for (const std::string &Path : Stale)
    if (::unlink(Path.c_str()) == 0)
      ++Swept;
  return Swept;
}

std::vector<std::string> profdb::listArtifactFiles(const std::string &Dir) {
  // Opening a repository is the natural sweep point for temps orphaned by
  // writers that died between open and rename: without it, a fleet of
  // crashing uploaders grows the directory without bound.
  sweepStaleTemps(Dir);
  std::vector<std::string> Paths;
  DIR *D = opendir(Dir.c_str());
  if (!D)
    return Paths;
  while (dirent *Entry = readdir(D)) {
    std::string Name = Entry->d_name;
    if (Name.size() <= 4 || Name.compare(Name.size() - 4, 4, ".ppa") != 0)
      continue;
    // A link to an artifact is listed; a directory or a dangling link
    // named *.ppa is not. d_type settles most entries without a syscall
    // (a repository holds thousands); links, and filesystems that leave
    // d_type unknown, are stat'ed, which follows the link.
    std::string Path = Dir + "/" + Name;
    bool Regular = Entry->d_type == DT_REG;
    if (Entry->d_type == DT_LNK || Entry->d_type == DT_UNKNOWN) {
      struct stat St;
      Regular = ::stat(Path.c_str(), &St) == 0 && S_ISREG(St.st_mode);
    }
    if (Regular)
      Paths.push_back(std::move(Path));
  }
  closedir(D);
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}
