//===- prof/Session.h - One profiling run end to end -----------*- C++ -*-===//
///
/// \file
/// Orchestration of a complete profiling run: clone + instrument, load into
/// a fresh machine, execute, then read the profiles back — path counter
/// arrays from simulated memory, hash tables and the CCT from the runtime,
/// ground-truth event totals from the machine.
///
//===----------------------------------------------------------------------===//

#ifndef PP_PROF_SESSION_H
#define PP_PROF_SESSION_H

#include "cct/CallingContextTree.h"
#include "prof/Acquisition.h"
#include "prof/Instrumenter.h"
#include "vm/Vm.h"

#include <array>
#include <memory>
#include <string>
#include <vector>

namespace pp {
namespace prof {

/// Knobs of a run.
struct SessionOptions {
  ProfileConfig Config;
  hw::MachineConfig MachineCfg;
  uint64_t MaxInsts = uint64_t(1) << 32;
  /// Which VM engine executes the run. The engines are bit-identical (see
  /// tests/EngineEquivalenceTest.cpp), so the choice is not part of the
  /// run's identity: a Reference plan folds onto (and may be served by
  /// the cache entry of) the Threaded run of the same plan. Code that
  /// must execute on the reference oracle marks its plan uncacheable.
  vm::Engine Engine = vm::Engine::Threaded;
  /// When non-empty, the named zero-argument function runs as a simulated
  /// signal handler every SignalInterval executed instructions.
  std::string SignalHandler;
  uint64_t SignalInterval = 0;
  /// How profiles are acquired: exact instrumentation (default, the
  /// historical behaviour) or counter-overflow sampling.
  AcquisitionOptions Acq;
};

/// One executed path and its accumulated measurements.
struct PathEntry {
  uint64_t PathSum = 0;
  uint64_t Freq = 0;
  /// Sums of the PIC0/PIC1 events over the path's executions (HW modes).
  uint64_t Metric0 = 0;
  uint64_t Metric1 = 0;
};

/// All executed paths of one function.
struct FunctionPathProfile {
  unsigned FuncId = 0;
  bool HasProfile = false;
  uint64_t NumPaths = 0;
  bool Hashed = false;
  /// Iterations per counted path: 1 for classic Ball-Larus, >= 2 when the
  /// entries are k-iteration window sums (the function's effective k after
  /// the fallback ladder; NumPaths is then the window-id space). Sums of
  /// different KIters are incomparable — merge/diff refuse to mix them.
  unsigned KIters = 1;
  /// Executed paths only (Freq > 0), sorted by PathSum.
  std::vector<PathEntry> Paths;
};

/// Edge counts of one function, reconstructed from chord counters.
struct EdgeProfile {
  unsigned FuncId = 0;
  bool HasProfile = false;
  /// Execution count per CFG edge id (CFG of the pristine module).
  std::vector<uint64_t> EdgeCounts;
  uint64_t Invocations = 0;
};

/// Everything a run produced.
struct RunOutcome {
  Instrumented Instr;
  /// Function names of the profiled module, indexed by function id (the
  /// ids path profiles and CCT ProcIds refer to).
  std::vector<std::string> Functions;
  vm::RunResult Result;
  /// Ground-truth event totals of the whole run.
  std::array<uint64_t, hw::NumEvents> Totals{};
  /// Flow-mode path profiles, indexed by function id.
  std::vector<FunctionPathProfile> PathProfiles;
  /// Edge-mode reconstructed profiles, indexed by function id.
  std::vector<EdgeProfile> EdgeProfiles;
  /// The CCT (context modes).
  std::unique_ptr<cct::CallingContextTree> Tree;
  /// What acquisition cost (all zero for exact instrumentation).
  AcquisitionStats Acq;

  uint64_t total(hw::Event E) const {
    return Totals[static_cast<unsigned>(E)];
  }
};

/// The decomposed pipeline of one profiling run. runProfile() drives the
/// four stages in order; callers that need to observe or reuse
/// intermediate state (the driver layer, the figure benches) can step
/// through them one at a time instead:
///
///   RunStager Stager(M, Options);
///   Stager.instrument();   // clone + edit the module
///   Stager.load();         // machine, VM, runtime, signal wiring
///   Stager.execute();      // run main() to completion
///   RunOutcome Out = Stager.extract();  // read the profiles back
///
/// A stager is single-use and keeps references to \p M and \p Options,
/// which must outlive it. Each stage requires the previous one; extract()
/// consumes the stager's state.
///
/// The stager owns the run's machinery (machine, VM, signal wiring) and
/// delegates everything acquisition-specific — what to instrument, what
/// to attach, how to read profiles back — to the AcquisitionEngine that
/// Options.Acq selects (see prof/Acquisition.h).
class RunStager {
public:
  RunStager(const ir::Module &M, const SessionOptions &Options);
  ~RunStager();

  /// Stage 1: clone \p M and splice in the instrumentation for the
  /// configured mode.
  void instrument();
  /// Stage 2: build the machine, lay the instrumented module out in its
  /// address space, and attach the profiling runtime and signal handler.
  void load();
  /// Stage 3: execute main() to completion on the simulated machine.
  void execute();
  /// Stage 4: read counters, path tables, edge counters, and the CCT back
  /// out of the machine and runtime, and name the functions after \p M.
  /// Consumes the stager.
  RunOutcome extract();

  /// The instrumented module (valid after instrument()).
  const Instrumented &instrumented() const;

private:
  const ir::Module &M;
  const SessionOptions &Options;
  struct State;
  std::unique_ptr<State> S;
};

/// Runs \p M under \p Options (Mode::None = uninstrumented baseline).
RunOutcome runProfile(const ir::Module &M, const SessionOptions &Options);

} // namespace prof
} // namespace pp

#endif // PP_PROF_SESSION_H
