//===- prof/Runtime.cpp - The profiling runtime ------------------------------===//

#include "prof/Runtime.h"

#include "support/Error.h"

#include <cassert>

using namespace pp;
using namespace pp::prof;

Runtime::Runtime(const Instrumented &Instr, hw::Machine &Machine)
    : Instr(Instr), Machine(Machine) {
  if (!modeUsesCct(Instr.Config.M))
    return;
  // Build the procedure descriptor table the CCT needs: slot counts and
  // kinds per function, plus path-table sizes in Context+Flow mode.
  std::vector<cct::ProcDesc> Procs;
  Procs.reserve(Instr.Functions.size());
  for (const FunctionInstrInfo &Info : Instr.Functions) {
    cct::ProcDesc Desc;
    Desc.Name = Info.F ? Info.F->name() : "<null>";
    Desc.NumSites = Info.NumSites;
    Desc.SiteIsIndirect = Info.SiteIsIndirect;
    if (modeUsesPerRecordPaths(Instr.Config.M) && Info.HasPathProfile)
      Desc.NumPaths = Info.NumPaths;
    Procs.push_back(std::move(Desc));
  }
  // Metrics: [0] invocations, [1] PIC0 sum, [2] PIC1 sum. Path cells carry
  // metric accumulators only in the full flow+context+HW combination.
  Tree = std::make_unique<cct::CallingContextTree>(
      std::move(Procs), /*NumMetrics=*/3, /*Charger=*/this,
      /*PathCellBytes=*/
      Instr.Config.M == Mode::ContextFlowHw ? 24u : 8u,
      /*HashThreshold=*/Instr.Config.Plan.ArrayThreshold);
  GcspRecord = Tree->root();
  GcspSlot = 0;
}

Runtime::~Runtime() = default;

const std::unordered_map<uint64_t, cct::PathCell> &
Runtime::hashTable(unsigned FuncId) const {
  static const std::unordered_map<uint64_t, cct::PathCell> Empty;
  auto It = HashTables.find(FuncId);
  return It == HashTables.end() ? Empty : It->second;
}

vm::ProfRuntime::HookFn Runtime::bindOp(const ir::Inst &I) {
  // One captureless trampoline per opcode. Both engines run the one the
  // opcode binds to, so they charge the machine identically.
  switch (I.Op) {
  case ir::Opcode::CctEnter:
    return [](vm::ProfRuntime &RT, vm::Vm &VM, const ir::Inst &) {
      static_cast<Runtime &>(RT).doCctEnter(VM);
    };
  case ir::Opcode::CctCall:
    return [](vm::ProfRuntime &RT, vm::Vm &, const ir::Inst &I) {
      // The caller points the gCSP at this site's slot in its record: one
      // add off the local call record pointer (§4.2 "Procedure call").
      Runtime &Self = static_cast<Runtime &>(RT);
      Self.GcspRecord = Self.currentRecord();
      Self.GcspSlot = static_cast<unsigned>(I.Imm);
      Self.Machine.chargeInsts(1);
    };
  case ir::Opcode::CctExit:
    return [](vm::ProfRuntime &RT, vm::Vm &VM, const ir::Inst &) {
      static_cast<Runtime &>(RT).doCctExit(VM);
    };
  case ir::Opcode::CctHwProbe:
    return [](vm::ProfRuntime &RT, vm::Vm &VM, const ir::Inst &I) {
      static_cast<Runtime &>(RT).doHwProbe(VM, static_cast<int>(I.Imm));
    };
  case ir::Opcode::CctPathCommit:
    return [](vm::ProfRuntime &RT, vm::Vm &VM, const ir::Inst &I) {
      static_cast<Runtime &>(RT).doCctPathCommit(VM, I);
    };
  case ir::Opcode::PathHashCommit:
    return [](vm::ProfRuntime &RT, vm::Vm &VM, const ir::Inst &I) {
      static_cast<Runtime &>(RT).doPathHashCommit(VM, I);
    };
  default:
    unreachable("not a profiling runtime op");
  }
}

void Runtime::doCctEnter(vm::Vm &VM) {
  assert(Tree && "cct op without a context mode");
  const ir::Function *F = VM.currentFunction();
  assert(F && "cct.enter outside a function");

  // Save the caller's gCSP to the (simulated) stack so calls through
  // uninstrumented procedures still attribute correctly.
  Machine.touchData(layout::ProfStackBase + 16 * Shadow.size(), 8,
                    /*IsWrite=*/true);
  Machine.chargeInsts(2);

  cct::CallRecord *R = Tree->enter(GcspRecord, GcspSlot, F->id());

  // Invocation count lives in the record's first metric slot.
  cct::CallingContextTree::bumpMetric(R, 0, 1);
  Machine.touchData(R->addr() + 16, 8, /*IsWrite=*/false);
  Machine.touchData(R->addr() + 16, 8, /*IsWrite=*/true);
  Machine.chargeInsts(3);

  Shadow.push_back(ShadowEntry{VM.frameDepth(), R, GcspRecord, GcspSlot, 0});
}

void Runtime::doCctExit(vm::Vm &VM) {
  assert(Tree && !Shadow.empty() && "cct.exit without matching enter");
  const ShadowEntry &Entry = Shadow.back();
  GcspRecord = Entry.SavedGcspRecord;
  GcspSlot = Entry.SavedGcspSlot;
  Shadow.pop_back();
  // Reload the saved gCSP from the stack.
  Machine.touchData(layout::ProfStackBase + 16 * Shadow.size(), 8,
                    /*IsWrite=*/false);
  Machine.chargeInsts(2);
}

void Runtime::doHwProbe(vm::Vm &VM, int Kind) {
  assert(Tree && !Shadow.empty() && "hw probe without an active record");
  ShadowEntry &Entry = Shadow.back();
  if (Kind == 0) {
    // Entry probe: snapshot the free-running PICs.
    Entry.HwStart = Machine.counters().readPics();
    Machine.chargeInsts(2);
    return;
  }
  // Loop back edge (1) or exit (2): accumulate the 32-bit lane deltas into
  // the record and restart the interval (§4.3: reading along back edges
  // bounds the interval, avoiding wrap and longjmp loss).
  uint64_t Cur = Machine.counters().readPics();
  uint64_t Start = Entry.HwStart;
  uint64_t Delta0 = static_cast<uint32_t>(Cur) - static_cast<uint32_t>(Start);
  Delta0 &= 0xffffffffu;
  uint64_t Delta1 = (Cur >> 32) - (Start >> 32);
  Delta1 &= 0xffffffffu;
  cct::CallRecord *R = Entry.Record;
  cct::CallingContextTree::bumpMetric(R, 1, Delta0);
  cct::CallingContextTree::bumpMetric(R, 2, Delta1);
  Entry.HwStart = Cur;
  for (unsigned Metric = 1; Metric <= 2; ++Metric) {
    Machine.touchData(R->addr() + 16 + 8 * Metric, 8, /*IsWrite=*/false);
    Machine.touchData(R->addr() + 16 + 8 * Metric, 8, /*IsWrite=*/true);
  }
  Machine.chargeInsts(8);
}

void Runtime::doCctPathCommit(vm::Vm &VM, const ir::Inst &I) {
  assert(Tree && !Shadow.empty() && "path commit without an active record");
  uint64_t PathSum = VM.reg(I.A);
  if (Instr.Config.M == Mode::ContextFlowHw) {
    // The counters were zeroed at the path start, so the current PIC
    // values are the path's metric deltas.
    uint64_t Cur = Machine.counters().readPics();
    Machine.chargeInsts(3); // rd + lane extraction
    Tree->commitPath(Shadow.back().Record, PathSum, /*WithMetrics=*/true,
                     static_cast<uint32_t>(Cur), Cur >> 32);
    return;
  }
  Tree->commitPath(Shadow.back().Record, PathSum, /*WithMetrics=*/false, 0,
                   0);
}

void Runtime::doPathHashCommit(vm::Vm &VM, const ir::Inst &I) {
  unsigned FuncId = static_cast<unsigned>(I.Imm);
  assert(FuncId < Instr.Functions.size());
  const FunctionInstrInfo &Info = Instr.Functions[FuncId];
  uint64_t Key = VM.reg(I.A);
  if (Info.KIters >= 2) {
    // Multi-iteration windows: the emitted commit is unchanged (Key is
    // the legacy segment sum), but the runtime stitches segments into
    // k-iteration windows and counts those instead.
    doKSegmentCommit(VM, Info, FuncId, Key);
    return;
  }
  cct::PathCell &Cell = HashTables[FuncId][Key];
  ++Cell.Freq;

  // Charge one probe of the open-addressed table plus the counter update.
  uint64_t Cells = Instr.Config.Plan.ArrayThreshold;
  uint64_t Mixed = Key * 0x9e3779b97f4a7c15ULL;
  uint64_t CellAddr = Info.TableAddr + (Mixed % Cells) * 32;
  Machine.touchData(CellAddr, 8, /*IsWrite=*/false); // key compare
  Machine.touchData(CellAddr + 8, 8, /*IsWrite=*/false);
  Machine.touchData(CellAddr + 8, 8, /*IsWrite=*/true);
  Machine.chargeInsts(8);

  if (Instr.Config.M == Mode::FlowHw) {
    uint64_t Cur = Machine.counters().readPics();
    Cell.Metric0 += static_cast<uint32_t>(Cur);
    Cell.Metric1 += Cur >> 32;
    Machine.touchData(CellAddr + 16, 8, /*IsWrite=*/true);
    Machine.touchData(CellAddr + 24, 8, /*IsWrite=*/true);
    Machine.chargeInsts(6);
  }
}

const Runtime::KSegment &Runtime::decodeSegment(const FunctionInstrInfo &Info,
                                                unsigned FuncId,
                                                uint64_t Key) {
  std::unordered_map<uint64_t, KSegment> &Table = KSegCache[FuncId];
  auto It = Table.find(Key);
  if (It != Table.end())
    return It->second;

  assert(Info.KPaths && "k-segment commit without a k-numbering");
  const bl::KPathBundle &Bundle = *Info.KPaths;
  bl::RegeneratedPath Seg;
  bl::NumberingQueryStatus S = Bundle.PN.tryRegenerate(Key, Seg);
  if (S != bl::NumberingQueryStatus::Ok)
    reportFatalError(std::string("k-segment decode refused: ") +
                     bl::numberingQueryStatusName(S));
  KSegment Decoded;
  Decoded.EndsWithBackedge = Seg.EndsWithBackedge;
  Decoded.LevelVals.reserve(Info.KIters);
  for (unsigned Level = 0; Level != Info.KIters; ++Level)
    Decoded.LevelVals.push_back(Bundle.KPN.segmentValue(Seg, Level));
  return Table.emplace(Key, std::move(Decoded)).first->second;
}

void Runtime::commitKWindow(const FunctionInstrInfo &Info, const KWindow &W) {
  cct::PathCell &Cell = HashTables[W.FuncId][W.Acc];
  ++Cell.Freq;

  // Charge one probe of the open-addressed table plus the counter update
  // — the same traffic the per-path commit pays in single-iteration runs,
  // but only once per window.
  uint64_t Cells = Instr.Config.Plan.ArrayThreshold;
  uint64_t Mixed = W.Acc * 0x9e3779b97f4a7c15ULL;
  uint64_t CellAddr = Info.TableAddr + (Mixed % Cells) * 32;
  Machine.touchData(CellAddr, 8, /*IsWrite=*/false); // key compare
  Machine.touchData(CellAddr + 8, 8, /*IsWrite=*/false);
  Machine.touchData(CellAddr + 8, 8, /*IsWrite=*/true);
  Machine.chargeInsts(8);

  if (Instr.Config.M == Mode::FlowHw) {
    Cell.Metric0 += W.M0;
    Cell.Metric1 += W.M1;
    Machine.touchData(CellAddr + 16, 8, /*IsWrite=*/true);
    Machine.touchData(CellAddr + 24, 8, /*IsWrite=*/true);
    Machine.chargeInsts(6);
  }
}

void Runtime::doKSegmentCommit(vm::Vm &VM, const FunctionInstrInfo &Info,
                               unsigned FuncId, uint64_t Key) {
  const KSegment &Seg = decodeSegment(Info, FuncId, Key);

  // The activation's window is the innermost one; a first commit in this
  // activation pushes a fresh window (longjmp discards are handled by
  // onFrameUnwound, so anything deeper is already gone).
  size_t Depth = VM.frameDepth();
  assert((KStack.empty() || KStack.back().FrameDepth <= Depth) &&
         "stale window from an unwound frame");
  if (KStack.empty() || KStack.back().FrameDepth != Depth)
    KStack.push_back(KWindow{Depth, FuncId, 0, 0, 0, 0});
  KWindow &W = KStack.back();
  assert(W.FuncId == FuncId && "window belongs to another function");
  assert(W.Level < Seg.LevelVals.size());

  // Register-accumulate the segment's level value: the in-flight window
  // sum lives in a register pair, so a mid-window segment costs a table
  // lookup's worth less than a single-iteration commit.
  W.Acc += Seg.LevelVals[W.Level];
  Machine.chargeInsts(3);
  if (Instr.Config.M == Mode::FlowHw) {
    // The PICs are zeroed at entry and at every back-edge restart, so the
    // current values are this segment's metric deltas; fold the 32-bit
    // lanes into the window accumulators.
    uint64_t Cur = Machine.counters().readPics();
    W.M0 += static_cast<uint32_t>(Cur);
    W.M1 += Cur >> 32;
    Machine.chargeInsts(4);
  }

  if (Seg.EndsWithBackedge && W.Level + 1 < Info.KIters) {
    ++W.Level;
    return;
  }
  commitKWindow(Info, W);
  if (Seg.EndsWithBackedge) {
    // Window closed at the top level; the activation continues with a
    // fresh window whose first segment starts just after this back edge
    // (its decode carries the EntryPseudo start value, so nothing is
    // added here).
    W.Level = 0;
    W.Acc = 0;
    W.M0 = 0;
    W.M1 = 0;
    return;
  }
  // The segment returned: the activation is done.
  KStack.pop_back();
}

void Runtime::onSignalDeliver(vm::Vm &VM) {
  if (!Tree)
    return;
  // The handler is a fresh entry point: point the gCSP at the root's
  // signal slot so its cct.enter hangs the activation off the root
  // instead of whatever procedure the signal interrupted.
  SignalSavedGcsps.push_back({GcspRecord, GcspSlot});
  GcspRecord = Tree->root();
  GcspSlot = cct::SignalSlot;
  Machine.chargeInsts(2);
}

void Runtime::onSignalReturn(vm::Vm &VM) {
  if (!Tree || SignalSavedGcsps.empty())
    return;
  GcspRecord = SignalSavedGcsps.back().first;
  GcspSlot = SignalSavedGcsps.back().second;
  SignalSavedGcsps.pop_back();
  Machine.chargeInsts(2);
}

void Runtime::onFrameUnwound(vm::Vm &VM, const ir::Function &F) {
  // A longjmp is discarding the current frame: drop its shadow entry (if
  // the function was instrumented) and restore the gCSP it saved, exactly
  // what the normal exception mechanism does for instrumented code (§4.2).
  while (!Shadow.empty() && Shadow.back().FrameDepth >= VM.frameDepth()) {
    GcspRecord = Shadow.back().SavedGcspRecord;
    GcspSlot = Shadow.back().SavedGcspSlot;
    Shadow.pop_back();
  }
  // Partial k-iteration windows of unwound activations are discarded, the
  // same way a longjmp loses the in-flight path register r.
  while (!KStack.empty() && KStack.back().FrameDepth >= VM.frameDepth())
    KStack.pop_back();
}
