//===- prof/Runtime.h - The profiling runtime ------------------*- C++ -*-===//
///
/// \file
/// Implements the profiling pseudo-ops the instrumenter emits. The CCT
/// protocol state (the gCSP "callee slot pointer" register, the per-frame
/// shadow of saved gCSPs, per-activation PIC snapshots) lives here, as do
/// the hash-table path counters for functions whose potential-path count
/// exceeds the array threshold.
///
/// Every operation charges the simulated machine the instruction count and
/// memory traffic of its inline expansion — CCT heap and profiling-stack
/// addresses go through the simulated D-cache — so runtime-implemented
/// instrumentation perturbs the machine like emitted code does.
///
//===----------------------------------------------------------------------===//

#ifndef PP_PROF_RUNTIME_H
#define PP_PROF_RUNTIME_H

#include "cct/CallingContextTree.h"
#include "prof/Instrumenter.h"
#include "vm/Vm.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace pp {
namespace prof {

/// The runtime behind the instrumented program.
class Runtime : public vm::ProfRuntime, public cct::MemCharger {
public:
  Runtime(const Instrumented &Instr, hw::Machine &Machine);
  ~Runtime() override;

  // --- vm::ProfRuntime ----------------------------------------------------
  /// One trampoline per pseudo-op opcode, shared by both VM engines.
  HookFn bindOp(const ir::Inst &I) override;
  void onFrameUnwound(vm::Vm &VM, const ir::Function &F) override;
  void onSignalDeliver(vm::Vm &VM) override;
  void onSignalReturn(vm::Vm &VM) override;

  // --- cct::MemCharger -----------------------------------------------------
  void touchMemory(uint64_t Addr, unsigned Size, bool IsWrite) override {
    Machine.touchData(Addr, Size, IsWrite);
  }
  void chargeInsts(unsigned N) override { Machine.chargeInsts(N); }

  // --- Results --------------------------------------------------------------
  /// The run's tree, its path tables sorted; null unless a context mode
  /// is active.
  std::unique_ptr<cct::CallingContextTree> takeTree() {
    if (Tree)
      Tree->sortPathTables();
    return std::move(Tree);
  }

  /// Hash-mode path counters of function \p FuncId (empty map if none).
  const std::unordered_map<uint64_t, cct::PathCell> &
  hashTable(unsigned FuncId) const;

private:
  struct ShadowEntry {
    size_t FrameDepth;
    cct::CallRecord *Record;
    cct::CallRecord *SavedGcspRecord;
    unsigned SavedGcspSlot;
    /// Packed PIC snapshot at the last probe (Context and HW).
    uint64_t HwStart;
  };

  /// One in-flight k-iteration window of one activation: the window sum
  /// and metric lanes accumulated so far, and the level (back edges
  /// crossed) the next segment commits at. Stacked because activations
  /// nest; matched to activations by frame depth.
  struct KWindow {
    size_t FrameDepth;
    unsigned FuncId;
    unsigned Level = 0;
    uint64_t Acc = 0;
    uint64_t M0 = 0;
    uint64_t M1 = 0;
  };

  /// Memoized decode of one legacy segment sum: its per-level window-sum
  /// contributions and whether it ended with a back edge. Keys repeat
  /// enormously (hot paths), so each is decoded once per run.
  struct KSegment {
    std::vector<uint64_t> LevelVals;
    bool EndsWithBackedge = false;
  };

  void doCctEnter(vm::Vm &VM);
  void doCctExit(vm::Vm &VM);
  void doHwProbe(vm::Vm &VM, int Kind);
  void doPathHashCommit(vm::Vm &VM, const ir::Inst &I);
  void doCctPathCommit(vm::Vm &VM, const ir::Inst &I);
  void doKSegmentCommit(vm::Vm &VM, const FunctionInstrInfo &Info,
                        unsigned FuncId, uint64_t Key);
  void commitKWindow(const FunctionInstrInfo &Info, const KWindow &W);
  const KSegment &decodeSegment(const FunctionInstrInfo &Info,
                                unsigned FuncId, uint64_t Key);

  cct::CallRecord *currentRecord() {
    return Shadow.empty() ? Tree->root() : Shadow.back().Record;
  }

  const Instrumented &Instr;
  hw::Machine &Machine;
  std::unique_ptr<cct::CallingContextTree> Tree;
  /// The gCSP global register: (record, callee slot index).
  cct::CallRecord *GcspRecord = nullptr;
  unsigned GcspSlot = 0;
  std::vector<ShadowEntry> Shadow;
  /// gCSPs saved across signal-handler activations.
  std::vector<std::pair<cct::CallRecord *, unsigned>> SignalSavedGcsps;
  std::unordered_map<unsigned, std::unordered_map<uint64_t, cct::PathCell>>
      HashTables;
  /// In-flight k-iteration windows, innermost activation last. Only
  /// functions with KIters >= 2 push entries.
  std::vector<KWindow> KStack;
  /// Per-function segment decode cache (KIters >= 2 functions only).
  std::unordered_map<unsigned, std::unordered_map<uint64_t, KSegment>>
      KSegCache;
};

} // namespace prof
} // namespace pp

#endif // PP_PROF_RUNTIME_H
