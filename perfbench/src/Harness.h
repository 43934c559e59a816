//===- perfbench/src/Harness.h - Shared benchmark plumbing -----*- C++ -*-===//
///
/// \file
/// What the three workloads share: the steady clock, an in-memory span
/// tracer, order statistics, the seeded generator, output digests and the
/// one-line JSON result the Python front end (run.py) reads.
///
/// Every timer here sits in the benchmark's own files around calls into
/// the library's public functions; nothing is traced inside src/.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "driver/Driver.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Worker threads of a harness-owned driver that runs many plans at once
/// (repo-report's restore, the reference generator). Fixed, and half of
/// the 4-CPU host the benchmark was tuned on; the host's nproc is
/// recorded beside it.
constexpr unsigned DriverWorkers = 2;
/// Worker threads of a driver fed one plan at a time by runEach(): none,
/// so each run executes on the calling thread when its outcome is asked
/// for (the driver's serial mode). A hand-off to a worker thread wakes a
/// sleeping CPU twice per run, a delay that follows the host's load;
/// without it profile-suite's wall_s spread less from run to run.
constexpr unsigned SerialWorkers = 0;

/// Knobs shared by every workload, fixed by run.py.
struct Options {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// "full" for measurement, "smoke" for the benchmark's own tests.
  std::string Size = "full";
  /// Scratch directory for caches, repositories and traces.
  std::string WorkDir;
  /// The committed per-run digests of the profile suite.
  std::string ReferencePath;
};

/// One span: a timed call into a layer. Spans of one run or upload share
/// an Id; Parent is the index of the enclosing span, or -1.
struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int64_t Parent = -1;
  uint64_t Id = 0;
};

/// Keeps spans in memory; writes them out once, at the end of the run.
/// A disabled tracer times nothing and records nothing, so the same code
/// path measures the untraced wall time the overhead is taken against.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled), T0(Clock::now()) {}

  /// Opens a span and returns its index (-1 when disabled).
  int64_t open(const std::string &Name, uint64_t Id, int64_t Parent = -1);
  /// Closes span \p Index and returns its length in seconds.
  double close(int64_t Index);

  /// Total seconds spent in spans named \p Name.
  double total(const std::string &Name) const;
  const std::vector<Span> &spans() const { return Spans; }

  /// Writes one JSON object per span to \p Path.
  bool write(const std::string &Path) const;

private:
  int64_t nowNs() const;
  bool Enabled;
  Clock::time_point T0;
  std::vector<Span> Spans;
};

/// RAII span: opens on construction, closes on destruction.
class Scoped {
public:
  Scoped(Tracer &T, const std::string &Name, uint64_t Id = 0,
         int64_t Parent = -1)
      : T(T), Index(T.open(Name, Id, Parent)) {}
  ~Scoped() { T.close(Index); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;
  int64_t index() const { return Index; }

private:
  Tracer &T;
  int64_t Index;
};

/// The value at quantile \p Q (0..1) of \p Values, by linear
/// interpolation between order statistics; 0 for an empty set.
double quantile(std::vector<double> Values, double Q);
inline double median(const std::vector<double> &Values) {
  return quantile(Values, 0.5);
}

/// splitmix64: the benchmark's only source of randomness, seeded from
/// --seed, so a seed names its inputs exactly.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, Bound).
  uint64_t below(uint64_t Bound) { return next() % Bound; }
  double unit() { return double(next() >> 11) / double(uint64_t(1) << 53); }

private:
  uint64_t State;
};

/// FNV-1a over a byte stream, for output digests.
class Digest {
public:
  void bytes(const void *Data, size_t Size);
  void u64(uint64_t V) { bytes(&V, sizeof(V)); }
  uint64_t value() const { return H; }

private:
  uint64_t H = 1469598103934665603ull;
};

/// Digest of a run's simulated totals, path tables and CCT export — the
/// outputs the profile-suite correctness gate compares.
uint64_t outcomeDigest(const pp::prof::RunOutcome &Out);

/// "workload scale mode" -> digest, as committed in the reference file.
using ReferenceDigests = std::map<std::string, uint64_t>;
std::string referenceKey(const std::string &Workload, int Scale,
                         const char *Mode);
bool loadReference(const std::string &Path, ReferenceDigests &Out,
                   std::string &Error);

/// The four Table 1 modes and their short metric suffixes.
struct ModeName {
  pp::prof::Mode M;
  const char *Suffix;
};
extern const ModeName SuiteModes[4];

/// Peak resident set of this process, in MiB.
double peakRssMb();

/// Creates and returns a new, empty directory "<WorkDir>/<Stem>.<n>". A
/// run never deletes or reuses a directory: deleted files on a
/// discard-mounted filesystem queue work that lands in later timed
/// sections. run.py gives every run a new work directory.
std::string newDir(const Options &O, const std::string &Stem);

/// Flushes dirty file data (sync(2)) before a timed section, so writeback
/// and discards of earlier files do not land inside it.
void settle();

/// What one workload reports back to main().
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Why the gate failed, one line per mismatch kind (empty = correct).
  std::vector<std::string> Mismatches;
  /// Metric name -> (value, unit). Trace runs fill per-layer metrics.
  std::map<std::string, std::pair<double, std::string>> Metrics;
  /// Metric name -> per-pass samples, for the spread report.
  std::map<std::string, std::vector<double>> Samples;
  /// Host facts and other descriptive fields (printed, not gated).
  std::map<std::string, std::string> Facts;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  void fact(const std::string &Name, const std::string &Value) {
    Facts[Name] = Value;
  }
  void fact(const std::string &Name, double Value);
  void mismatch(const std::string &What, uint64_t Count = 1);
};

/// Host times of a sequence of steps that is repeated pass after pass;
/// every pass records the same steps in the same order.
class StepTimes {
public:
  void beginPass() { Passes.emplace_back(); }
  /// Records the next step of the current pass.
  void record(double Seconds) { Passes.back().push_back(Seconds); }
  size_t passes() const { return Passes.size(); }
  /// The sum over steps of each step's fastest time. Other tenants of a
  /// shared host only ever slow a step down, by up to 2x on the host this
  /// was tuned on and for minutes at a time. A step of milliseconds finds
  /// a quiet moment far more often than a whole pass does, so this sum
  /// repeats from run to run where the median, or even the fastest whole
  /// pass, drifts with the host's load. Medians are printed beside it.
  double fastestSum() const;
  /// Each pass's total, for medians and spreads.
  std::vector<double> totals() const;

private:
  std::vector<std::vector<double>> Passes;
};

/// A traced run alternates this many untraced and traced passes. The
/// tracing overhead compares the fastest of each kind; the layer figures
/// come from the last traced pass.
constexpr unsigned TracePairs = 3;

/// Runs \p Plans through \p D one at a time, in order, recording each
/// run (submit to get) as a step of \p Steps.
std::vector<pp::driver::OutcomePtr>
runEach(pp::driver::Driver &D, std::vector<pp::driver::RunPlan> Plans,
        StepTimes &Steps);

/// Opens a pass of \p Steps and runs \p Body (one pass, recording its
/// steps) until \p Seconds have elapsed, at least \p MinPasses times.
template <typename Fn>
void repeatPasses(double Seconds, unsigned MinPasses, StepTimes &Steps,
                  Fn Body) {
  Clock::time_point T0 = Clock::now();
  while (Steps.passes() < MinPasses || secondsSince(T0) < Seconds) {
    Steps.beginPass();
    Body();
  }
}

Result runProfileSuite(const Options &O);
Result runRepoReport(const Options &O);
Result runFleetIngest(const Options &O);
/// Writes the reference digest file for the profile suite at \p Scales,
/// executing every run on the reference VM engine.
int generateReference(const std::string &Path, const std::vector<int> &Scales);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
