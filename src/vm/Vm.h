//===- vm/Vm.h - IR interpreter on the simulated machine -------*- C++ -*-===//
///
/// \file
/// Executes a module on a hw::Machine, driving the caches, branch
/// predictor, store buffer, FP scoreboard, and performance counters one
/// instruction at a time. Profiling pseudo-ops are dispatched to a
/// ProfRuntime; an optional Tracer observes control flow (tests use it to
/// build oracle profiles the instrumented measurements must match).
///
/// Two execution engines share one set of semantics: the reference
/// switch-on-Opcode interpreter (the semantic oracle) and a predecoded,
/// direct-threaded engine that lowers each function once into a flat
/// DecodedInst stream (see Predecoder.h). Both drive the Machine through
/// identical event sequences, so every RunResult, counter vector, path
/// profile, and CCT export is bit-identical between them —
/// tests/EngineEquivalenceTest.cpp enforces exactly that. Every Vm runs
/// the threaded engine unless code selects the oracle with setEngine();
/// there is no environment knob, and the choice is not part of a run's
/// identity (driver/RunKey.h).
///
//===----------------------------------------------------------------------===//

#ifndef PP_VM_VM_H
#define PP_VM_VM_H

#include "hw/Machine.h"
#include "ir/Module.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace pp {
namespace vm {

class Vm;
struct DecodedFunction;
class Predecoder;

/// Which interpretation engine a Vm runs (default: Threaded).
enum class Engine : uint8_t {
  /// The original switch-dispatch interpreter; kept as the semantic oracle.
  Reference,
  /// The predecoded threaded-dispatch engine (computed-goto dispatch).
  Threaded,
};

/// Callbacks the profiling runtime implements (src/prof). Every Opcode
/// with isProfRuntimeOp() runs the handler bindOp resolves for it, in
/// both engines; onFrameUnwound fires for every frame a longjmp discards,
/// so the runtime can pop its shadow state the way the paper's exception
/// discussion requires (§4.2).
class ProfRuntime {
public:
  /// A pseudo-op handler. The predecoder resolves each profiling pseudo-op
  /// to one of these once, so the threaded engine's dispatch skips any
  /// per-execution opcode switch; the reference interpreter resolves it
  /// at each execution.
  using HookFn = void (*)(ProfRuntime &RT, Vm &VM, const ir::Inst &I);

  virtual ~ProfRuntime();
  /// The handler for the profiling pseudo-op \p I.
  virtual HookFn bindOp(const ir::Inst &I) = 0;
  virtual void onFrameUnwound(Vm &VM, const ir::Function &F) = 0;
  /// A signal handler is about to run / has returned. The CCT gives signal
  /// handlers their own root slot ("the CCT would need multiple roots",
  /// §4.2), so the runtime repoints the gCSP for the handler's duration.
  virtual void onSignalDeliver(Vm &VM) {}
  virtual void onSignalReturn(Vm &VM) {}
};

/// Control-flow observer. Default implementations do nothing.
class Tracer {
public:
  virtual ~Tracer();
  /// A CFG edge was taken; SuccIndex is the canonical successor index, or
  /// -1 for leaving the function (return or longjmp).
  virtual void onEdgeTaken(const ir::BasicBlock &From, int SuccIndex) {}
  virtual void onEnterFunction(const ir::Function &F) {}
  virtual void onExitFunction(const ir::Function &F) {}
  /// A frame was discarded by longjmp without returning.
  virtual void onUnwindFunction(const ir::Function &F) {}
  /// A call is about to transfer to \p Callee.
  virtual void onCall(const ir::Function &Caller, const ir::Inst &CallInst,
                      const ir::Function &Callee) {}
};

/// Observer of counter-overflow traps (hw::PerfCounters::armOverflowTrap).
/// Traps are delivered at instruction boundaries, before the instruction
/// at \p Pc executes; the VM disarms the trap and charges
/// CostModel::TrapDeliveryCycles before invoking the handler, which
/// re-arms if it wants further traps. Handlers run as host code — they
/// must not push simulated frames.
class TrapHandler {
public:
  virtual ~TrapHandler();
  virtual void onOverflowTrap(Vm &VM, uint64_t Pc) = 0;
};

/// Outcome of a run.
struct RunResult {
  bool Ok = false;
  std::string Error;
  uint64_t ExitValue = 0;
  /// IR instructions the VM dispatched (excludes runtime-op charges).
  uint64_t ExecutedInsts = 0;
};

/// The interpreter. Construction lays the module out in the machine's
/// address space: code addresses are assigned (4 bytes per instruction) and
/// global initialisers are copied into memory.
class Vm {
public:
  Vm(ir::Module &M, hw::Machine &Machine);
  ~Vm();

  void setRuntime(ProfRuntime *R) { Runtime = R; }
  void setTracer(Tracer *T) { TracerHook = T; }
  /// Receives counter-overflow traps. Installing a handler disables
  /// cmp+branch superinstruction fusion in the threaded engine (a trap
  /// must not be deliverable at the hidden boundary inside a fused pair),
  /// exactly as installing a signal handler does.
  void setTrapHandler(TrapHandler *T) { TrapHook = T; }
  /// Selects the execution engine (default: Threaded; Reference is the
  /// differential oracle). Must be called before run().
  void setEngine(Engine E) { Eng = E; }
  Engine engine() const { return Eng; }
  /// Aborts the run with an error after this many executed instructions.
  void setMaxInsts(uint64_t Max) { MaxInsts = Max; }

  /// Delivers a simulated signal every \p IntervalInsts executed
  /// instructions: \p Handler (a zero-argument function) runs to
  /// completion, then the interrupted code resumes. Signals have
  /// resumption semantics and do not nest.
  void setSignal(ir::Function *Handler, uint64_t IntervalInsts) {
    assert(Handler && Handler->numParams() == 0 &&
           "signal handlers take no arguments");
    SignalHandler = Handler;
    SignalInterval = IntervalInsts;
    SignalCountdown = IntervalInsts;
  }

  /// Number of signals delivered so far.
  uint64_t signalsDelivered() const { return SignalsDelivered; }

  /// Number of counter-overflow traps delivered so far.
  uint64_t trapsDelivered() const { return TrapsDelivered; }

  /// Runs main() to completion.
  RunResult run();

  // --- Services for the profiling runtime ---------------------------------

  hw::Machine &machine() { return Machine; }
  ir::Module &module() { return M; }

  /// Depth of the call stack (1 while main runs).
  size_t frameDepth() const { return Frames.size(); }
  const ir::Function *currentFunction() const {
    return Frames.empty() ? nullptr : Frames.back().F;
  }

  /// Register access in the current frame.
  uint64_t reg(ir::Reg R) const;
  void setReg(ir::Reg R, uint64_t Value);

  /// Bump-allocates in the simulated program heap.
  uint64_t heapAlloc(uint64_t Size);

  /// Entry code address of \p F (the paper's procedure identifier).
  uint64_t functionEntryAddr(const ir::Function &F) const {
    return EntryAddrs[F.id()];
  }

private:
  struct Frame {
    ir::Function *F;
    ir::BasicBlock *BB;
    /// Reference engine: index into BB's instruction vector. Threaded
    /// engine: index into DF's flat decoded stream (BB stays null there).
    size_t InstIdx;
    /// The function's decoded stream (threaded engine only).
    const DecodedFunction *DF = nullptr;
    uint64_t Serial;
    /// Return continuation in the caller.
    ir::Reg RetDst;
    /// True for a frame pushed by signal delivery: returning from it
    /// resumes the interrupted instruction stream without advancing it.
    bool IsSignal = false;
    std::vector<uint64_t> Regs;
    /// Result-ready cycle per register, for the FP scoreboard.
    std::vector<uint64_t> Ready;
  };

  struct JmpBuf {
    size_t FrameIndex;
    uint64_t Serial;
    ir::BasicBlock *BB;
    size_t InstIdx;
    ir::Reg Dst;
  };

  void layout();
  /// The two engine bodies behind run().
  RunResult runReference();
  RunResult runThreaded();
  void fail(RunResult &Result, const std::string &Message);
  uint64_t operandB(const Frame &FR, const ir::Inst &I) const {
    return I.BIsImm ? static_cast<uint64_t>(I.Imm) : FR.Regs[I.B];
  }
  void pushFrame(ir::Function *Callee, const Frame &Caller,
                 const ir::Inst &CallInst);
  /// Takes a frame shell from the pool (register vectors keep their heap
  /// buffers) or default-constructs one; pushFrame overwrites every field.
  Frame takePooledFrame() {
    if (FramePool.empty())
      return Frame();
    Frame Shell = std::move(FramePool.back());
    FramePool.pop_back();
    return Shell;
  }
  /// Pops the current frame, parking its allocations for reuse — calls are
  /// hot enough that two heap round-trips per call/return pair matter.
  void recycleFrame() {
    FramePool.push_back(std::move(Frames.back()));
    Frames.pop_back();
  }
  void takeEdge(Frame &FR, const ir::BasicBlock &From, int SuccIndex,
                ir::BasicBlock *To);
  /// Delivers a pending counter-overflow trap at the boundary before the
  /// instruction at \p Pc: disarm, charge TrapDeliveryCycles, invoke the
  /// handler. Cold path, shared by both engines.
  void deliverOverflowTrap(uint64_t Pc);

  ir::Module &M;
  hw::Machine &Machine;
  ProfRuntime *Runtime = nullptr;
  Tracer *TracerHook = nullptr;
  TrapHandler *TrapHook = nullptr;
  Engine Eng = Engine::Threaded;
  uint64_t MaxInsts = uint64_t(1) << 34;
  std::vector<Frame> Frames;
  /// Popped frames, kept for their register-vector allocations.
  std::vector<Frame> FramePool;
  /// The decoded module, built on first threaded run (owned here so frame
  /// DF pointers stay valid for the Vm's lifetime).
  std::unique_ptr<Predecoder> Decoded;
  std::unordered_map<int64_t, JmpBuf> JmpBufs;
  std::vector<uint64_t> EntryAddrs;
  uint64_t HeapNext = layout::HeapBase;
  uint64_t NextSerial = 1;
  ir::Function *SignalHandler = nullptr;
  uint64_t SignalInterval = 0;
  uint64_t SignalCountdown = 0;
  uint64_t SignalsDelivered = 0;
  uint64_t TrapsDelivered = 0;
  bool InSignal = false;
};

} // namespace vm
} // namespace pp

#endif // PP_VM_VM_H
