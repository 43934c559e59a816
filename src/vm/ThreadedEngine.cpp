//===- vm/ThreadedEngine.cpp - Predecoded threaded-dispatch engine -----------===//
//
// The threaded execution engine: runs the Predecoder's flat DecodedInst
// streams with computed-goto dispatch, a GCC/Clang extension every
// supported build has (each handler ends in its own indirect branch, so
// the host branch predictor learns per-opcode successor patterns).
//
// Semantics are intentionally a line-for-line mirror of Vm::runReference:
// the same Machine events in the same order, the same error strings on the
// same dynamic instruction, the same tracer/runtime callbacks. Any
// observable divergence is a bug, and tests/EngineEquivalenceTest.cpp is
// the differential harness that hunts for one. When editing either engine,
// edit both.
//
//===----------------------------------------------------------------------===//

#include "vm/Predecoder.h"
#include "vm/Vm.h"

#include "support/Format.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

using namespace pp;
using namespace pp::vm;

// Refreshes the cached current-frame pointers after any push/pop. The
// program counter is the roaming stream pointer D itself; any handler
// that pushes a frame must write D's index back to FR->InstIdx first
// (Call/ICall/deliver_signal do), and this macro re-seeds D from the
// frame that becomes current.
#define PP_SET_FRAME()                                                         \
  do {                                                                         \
    FR = &Frames.back();                                                       \
    R = FR->Regs.data();                                                       \
    Rdy = FR->Ready.data();                                                    \
    Code = FR->DF->Stream.data();                                              \
    EX = FR->DF->Extras.data();                                                \
    StreamLen = FR->DF->Stream.size();                                         \
    (void)StreamLen;                                                           \
    D = Code + FR->InstIdx;                                                    \
  } while (0)

// D's index in the current frame's stream (for frame sync and setjmp).
#define PP_PC() (static_cast<size_t>(D - Code))

// Per-instruction work shared by both dispatch flavours; mirrors the
// reference loop's head: signal delivery, fetch, I-cache/issue accounting,
// interval-timer tick, instruction budget. The countdown ticks before the
// instruction executes rather than after (both engines agree): delivery
// points are identical either way, since the counter decrements exactly
// once per executed instruction between boundary checks. With no signal
// handler installed (SigHandler is run-invariant) the signal work folds
// to one never-taken register test; likewise the overflow-trap check
// (TrapH run-invariant) vanishes when no trap handler is installed, and
// otherwise costs one load+compare against the armed PIC's threshold.
#define PP_PROLOGUE()                                                          \
  do {                                                                         \
    if (SigHandler && !InSignal) {                                             \
      if (SignalCountdown == 0)                                                \
        goto deliver_signal;                                                   \
      --SignalCountdown;                                                       \
    }                                                                          \
    if (TrapH && MC.counters().overflowPending()) {                            \
      FR->InstIdx = PP_PC();                                                   \
      deliverOverflowTrap(D->Addr);                                            \
    }                                                                          \
    assert(PP_PC() < StreamLen && "ran off end of stream");                    \
    MC.beginInst(D->Addr);                                                     \
    if (++Executed > Budget)                                                   \
      goto budget_exhausted;                                                   \
  } while (0)

// Dispatch is direct threading proper: every handler ends by running
// the fetch prologue and dispatching through the label-address table
// itself, so each of the ~64 indirect-branch sites keys the host's
// predictor to the opcode that precedes it (per-opcode successor
// patterns — the classic threaded-dispatch win over a single shared
// switch site). Replication is affordable because the prologue's
// cold paths (the cache tag/LRU walk behind Machine::beginInst) live out
// of line; only a compare and two counter adds are copied per handler.
#define PP_CASE(Name) H_##Name
#define PP_DISPATCH()                                                          \
  goto *const_cast<void *>(Handlers[static_cast<size_t>(D->Op)])
#define PP_FETCH()                                                             \
  do {                                                                         \
    PP_PROLOGUE();                                                             \
    PP_DISPATCH();                                                             \
  } while (0)

// Advance past a straight-line instruction and dispatch the next one.
#define PP_NEXT()                                                              \
  do {                                                                         \
    ++D;                                                                       \
    PP_FETCH();                                                                \
  } while (0)

// Straight-line ALU handler pair: register and immediate second operand.
#define PP_ALU(Name, Expr)                                                     \
  PP_CASE(Name##RR) : {                                                        \
    uint64_t Av = R[D->A];                                                     \
    uint64_t Bv = R[D->B];                                                     \
    (void)Av;                                                                  \
    R[D->Dst] = (Expr);                                                        \
    PP_NEXT();                                                                 \
  }                                                                            \
  PP_CASE(Name##RI) : {                                                        \
    uint64_t Av = R[D->A];                                                     \
    uint64_t Bv = static_cast<uint64_t>(D->Imm);                               \
    (void)Av;                                                                  \
    R[D->Dst] = (Expr);                                                        \
    PP_NEXT();                                                                 \
  }

// Signed divide/remainder with the reference engine's edge-case results.
#define PP_DIVREM(Name, IsDiv)                                                 \
  {                                                                            \
    MC.addCycles(MC.cost().DivCycles);                               \
    int64_t Lhs = static_cast<int64_t>(R[D->A]);                               \
    int64_t Rhs = static_cast<int64_t>(Bv);                                    \
    if (Rhs == 0)                                                              \
      R[D->Dst] = (IsDiv) ? 0 : 0;                                             \
    else if (Lhs == std::numeric_limits<int64_t>::min() && Rhs == -1)          \
      R[D->Dst] = (IsDiv) ? static_cast<uint64_t>(Lhs) : 0;                    \
    else                                                                       \
      R[D->Dst] = static_cast<uint64_t>((IsDiv) ? Lhs / Rhs : Lhs % Rhs);      \
    PP_NEXT();                                                                 \
  }

// Fused compare+branch halves: evaluate the compare, store its
// architectural result, and jump to the shared branch tail with the
// condition in FusedCond. Only reachable when no signal handler is
// installed (the Predecoder gates fusion on that), so no delivery check
// is needed at the fused pair's internal boundary.
#define PP_CMPBR(Name, Expr)                                                   \
  PP_CASE(Name##RRBr) : {                                                      \
    uint64_t Av = R[D->A];                                                     \
    uint64_t Bv = R[D->B];                                                     \
    FusedCond = (Expr);                                                        \
    R[D->Dst] = FusedCond;                                                     \
    goto fused_br;                                                             \
  }                                                                            \
  PP_CASE(Name##RIBr) : {                                                      \
    uint64_t Av = R[D->A];                                                     \
    uint64_t Bv = static_cast<uint64_t>(D->Imm);                               \
    FusedCond = (Expr);                                                        \
    R[D->Dst] = FusedCond;                                                     \
    goto fused_br;                                                             \
  }

// FP arithmetic with the scoreboard stall, mirroring the reference engine.
#define PP_FP(Name, ValueExpr, LatencyExpr)                                    \
  PP_CASE(Name) : {                                                            \
    uint64_t ReadyAt = Rdy[D->A];                                              \
    if (!D->bIsImm())                                                            \
      ReadyAt = std::max(ReadyAt, Rdy[D->B]);                                  \
    uint64_t Now = MC.now();                                              \
    if (ReadyAt > Now)                                                         \
      MC.stall(hw::Event::FpStall, ReadyAt - Now);                        \
    double Lhs = std::bit_cast<double>(R[D->A]);                               \
    double Rhs = std::bit_cast<double>(                                        \
        D->bIsImm() ? static_cast<uint64_t>(D->Imm) : R[D->B]);                  \
    (void)Lhs;                                                                 \
    (void)Rhs;                                                                 \
    uint64_t Latency = (LatencyExpr);                                          \
    R[D->Dst] = (ValueExpr);                                                   \
    Rdy[D->Dst] = MC.now() + Latency;                                     \
    PP_NEXT();                                                                 \
  }

RunResult Vm::runThreaded() {
  RunResult Result;
  ir::Function *Main = M.main();
  if (!Main) {
    Result.Error = "module has no main function";
    return Result;
  }

  // Lower the module once per run; pseudo-op hooks bind to the currently
  // attached runtime, so the stream cannot be reused across setRuntime.
  // Superinstruction fusion is only sound when neither signal delivery
  // nor a counter-overflow trap can preempt the boundary inside a fused
  // pair.
  Decoded = std::make_unique<Predecoder>(
      M, Runtime,
      /*FuseCmpBr=*/SignalHandler == nullptr && TrapHook == nullptr);

  Frames.clear();
  {
    Frame Initial;
    Initial.F = Main;
    Initial.BB = nullptr;
    Initial.InstIdx = 0;
    Initial.DF = &Decoded->function(Main->id());
    Initial.Serial = NextSerial++;
    Initial.RetDst = ir::NoReg;
    Initial.Regs.assign(Main->numRegs(), 0);
    Initial.Ready.assign(Main->numRegs(), 0);
    Frames.push_back(std::move(Initial));
  }
  if (TracerHook)
    TracerHook->onEnterFunction(*Main);

  Result.Ok = true;

  // Hot interpreter state, hoisted into locals so the dispatch loop keeps
  // it in registers: the program counter, the current frame's decoded
  // stream, and run-invariant configuration (setTracer/setRuntime/
  // setSignal/setMaxInsts cannot be called mid-run).
  Frame *FR = nullptr;
  uint64_t *R = nullptr;
  uint64_t *Rdy = nullptr;
  const DecodedInst *Code = nullptr;
  const DecodedExtra *EX = nullptr;
  size_t StreamLen = 0;
  const DecodedInst *D = nullptr;
  uint64_t Executed = 0;
  uint64_t FusedCond = 0;
  ir::Function *const SigHandler = SignalHandler;
  TrapHandler *const TrapH = TrapHook;
  const uint64_t Budget = MaxInsts;
  Tracer *const TH = TracerHook;
  ProfRuntime *const RT = Runtime;
  hw::Machine &MC = Machine;

  // Direct threading: one indirect jump through the label-address table,
  // indexed by the instruction's decoded opcode.
  static const void *const Handlers[] = {
      &&H_MovR,     &&H_MovI,     &&H_AddRR,   &&H_AddRI,   &&H_SubRR,
      &&H_SubRI,    &&H_MulRR,    &&H_MulRI,   &&H_DivRR,   &&H_DivRI,
      &&H_RemRR,    &&H_RemRI,    &&H_AndRR,   &&H_AndRI,   &&H_OrRR,
      &&H_OrRI,     &&H_XorRR,    &&H_XorRI,   &&H_ShlRR,   &&H_ShlRI,
      &&H_ShrRR,    &&H_ShrRI,    &&H_CmpEqRR, &&H_CmpEqRI, &&H_CmpNeRR,
      &&H_CmpNeRI,  &&H_CmpLtRR,  &&H_CmpLtRI, &&H_CmpLeRR, &&H_CmpLeRI,
      &&H_FAdd,     &&H_FSub,     &&H_FMul,    &&H_FDiv,    &&H_FCmpLt,
      &&H_FCmpLe,   &&H_FCmpEq,   &&H_IntToFp, &&H_FpToInt, &&H_LoadAbs,
      &&H_LoadReg,  &&H_StoreAbs, &&H_StoreReg, &&H_Alloc,  &&H_Br,
      &&H_CondBr,   &&H_Switch,   &&H_Ret,     &&H_Call,    &&H_ICall,
      &&H_Setjmp,   &&H_Longjmp,  &&H_RdPic,   &&H_WrPic,   &&H_Prof,
      &&H_ProfNoRuntime,
      &&H_CmpEqRRBr, &&H_CmpEqRIBr, &&H_CmpNeRRBr, &&H_CmpNeRIBr,
      &&H_CmpLtRRBr, &&H_CmpLtRIBr, &&H_CmpLeRRBr, &&H_CmpLeRIBr,
  };
  static_assert(sizeof(Handlers) / sizeof(Handlers[0]) ==
                    static_cast<size_t>(DOp::NumDOps),
                "handler table must cover every decoded op, in enum order");

  PP_SET_FRAME();
  PP_FETCH();

  PP_CASE(MovR) : {
    R[D->Dst] = R[D->B];
    PP_NEXT();
  }
  PP_CASE(MovI) : {
    R[D->Dst] = static_cast<uint64_t>(D->Imm);
    PP_NEXT();
  }

  PP_ALU(Add, Av + Bv)
  PP_ALU(Sub, Av - Bv)
  PP_ALU(Mul, Av *Bv)

  PP_CASE(DivRR) : {
    uint64_t Bv = R[D->B];
    PP_DIVREM(Div, true)
  }
  PP_CASE(DivRI) : {
    uint64_t Bv = static_cast<uint64_t>(D->Imm);
    PP_DIVREM(Div, true)
  }
  PP_CASE(RemRR) : {
    uint64_t Bv = R[D->B];
    PP_DIVREM(Rem, false)
  }
  PP_CASE(RemRI) : {
    uint64_t Bv = static_cast<uint64_t>(D->Imm);
    PP_DIVREM(Rem, false)
  }

  PP_ALU(And, Av &Bv)
  PP_ALU(Or, Av | Bv)
  PP_ALU(Xor, Av ^ Bv)
  PP_ALU(Shl, Av << (Bv & 63))
  PP_ALU(Shr, Av >> (Bv & 63))
  PP_ALU(CmpEq, static_cast<uint64_t>(Av == Bv))
  PP_ALU(CmpNe, static_cast<uint64_t>(Av != Bv))
  PP_ALU(CmpLt, static_cast<uint64_t>(static_cast<int64_t>(Av) <
                                      static_cast<int64_t>(Bv)))
  PP_ALU(CmpLe, static_cast<uint64_t>(static_cast<int64_t>(Av) <=
                                      static_cast<int64_t>(Bv)))

  PP_FP(FAdd, std::bit_cast<uint64_t>(Lhs + Rhs), MC.cost().FpLatency)
  PP_FP(FSub, std::bit_cast<uint64_t>(Lhs - Rhs), MC.cost().FpLatency)
  PP_FP(FMul, std::bit_cast<uint64_t>(Lhs *Rhs), MC.cost().FpLatency)
  PP_FP(FDiv, std::bit_cast<uint64_t>(Lhs / Rhs), MC.cost().FpDivLatency)
  PP_FP(FCmpLt, static_cast<uint64_t>(Lhs < Rhs), 1)
  PP_FP(FCmpLe, static_cast<uint64_t>(Lhs <= Rhs), 1)
  PP_FP(FCmpEq, static_cast<uint64_t>(Lhs == Rhs), 1)

  PP_CASE(IntToFp) : {
    R[D->Dst] = std::bit_cast<uint64_t>(
        static_cast<double>(static_cast<int64_t>(R[D->A])));
    PP_NEXT();
  }
  PP_CASE(FpToInt) : {
    R[D->Dst] = static_cast<uint64_t>(
        static_cast<int64_t>(std::bit_cast<double>(R[D->A])));
    PP_NEXT();
  }

  PP_CASE(LoadAbs) : {
    uint64_t Addr = static_cast<uint64_t>(D->Imm);
    if (Addr < layout::CodeBase) {
      fail(Result, formatString("load from unmapped address 0x%llx in %s",
                                (unsigned long long)Addr,
                                FR->F->name().c_str()));
      goto done;
    }
    R[D->Dst] = MC.load(Addr, D->size());
    Rdy[D->Dst] = MC.now() + MC.cost().LoadLatency;
    PP_NEXT();
  }
  PP_CASE(LoadReg) : {
    uint64_t Addr = R[D->A] + static_cast<uint64_t>(D->Imm);
    if (Addr < layout::CodeBase) {
      fail(Result, formatString("load from unmapped address 0x%llx in %s",
                                (unsigned long long)Addr,
                                FR->F->name().c_str()));
      goto done;
    }
    R[D->Dst] = MC.load(Addr, D->size());
    Rdy[D->Dst] = MC.now() + MC.cost().LoadLatency;
    PP_NEXT();
  }
  PP_CASE(StoreAbs) : {
    uint64_t Addr = static_cast<uint64_t>(D->Imm);
    if (Addr < layout::CodeBase) {
      fail(Result, formatString("store to unmapped address 0x%llx in %s",
                                (unsigned long long)Addr,
                                FR->F->name().c_str()));
      goto done;
    }
    MC.store(Addr, D->size(),
                  D->bIsImm() ? static_cast<uint64_t>(D->Imm) : R[D->B]);
    PP_NEXT();
  }
  PP_CASE(StoreReg) : {
    uint64_t Addr = R[D->A] + static_cast<uint64_t>(D->Imm);
    if (Addr < layout::CodeBase) {
      fail(Result, formatString("store to unmapped address 0x%llx in %s",
                                (unsigned long long)Addr,
                                FR->F->name().c_str()));
      goto done;
    }
    MC.store(Addr, D->size(),
                  D->bIsImm() ? static_cast<uint64_t>(D->Imm) : R[D->B]);
    PP_NEXT();
  }
  PP_CASE(Alloc) : {
    R[D->Dst] =
        heapAlloc(D->bIsImm() ? static_cast<uint64_t>(D->Imm) : R[D->B]);
    PP_NEXT();
  }

  PP_CASE(Br) : {
    if (TH)
      TH->onEdgeTaken(*EX[PP_PC()].From, 0);
    D = Code + D->T1;
    PP_FETCH();
  }
  PP_CASE(CondBr) : {
    bool Taken = R[D->A] != 0;
    MC.condBranch(D->Addr, Taken);
    if (TH)
      TH->onEdgeTaken(*EX[PP_PC()].From, Taken ? 0 : 1);
    D = Code + (Taken ? D->T1 : D->T2);
    PP_FETCH();
  }
  PP_CASE(Switch) : {
    uint64_t Index = R[D->A];
    uint32_t Target;
    int SuccIndex;
    if (Index < D->NTargets) {
      Target = FR->DF->SwitchPool[D->T2 + Index];
      SuccIndex = static_cast<int>(Index) + 1;
    } else {
      Target = D->T1;
      SuccIndex = 0;
    }
    MC.indirectBranch(D->Addr, Code[Target].Addr);
    if (TH)
      TH->onEdgeTaken(*EX[PP_PC()].From, SuccIndex);
    D = Code + Target;
    PP_FETCH();
  }
  PP_CASE(Ret) : {
    uint64_t Value = D->bIsImm() ? static_cast<uint64_t>(D->Imm) : R[D->B];
    if (TH) {
      TH->onEdgeTaken(*EX[PP_PC()].From, -1);
      TH->onExitFunction(*FR->F);
    }
    ir::Reg Dst = FR->RetDst;
    bool WasSignal = FR->IsSignal;
    recycleFrame();
    if (WasSignal) {
      // Resume the interrupted instruction stream exactly where it was:
      // the interrupted frame's InstIdx was synced at delivery, so
      // PP_SET_FRAME restores the pre-signal PC unadvanced.
      InSignal = false;
      if (RT)
        RT->onSignalReturn(*this);
      PP_SET_FRAME();
      PP_FETCH();
    }
    if (Frames.empty()) {
      Result.ExitValue = Value;
      goto done;
    }
    PP_SET_FRAME();
    if (Dst != ir::NoReg)
      R[Dst] = Value;
    ++D; // step past the call
    PP_FETCH();
  }

  PP_CASE(Call) : {
    const DecodedExtra &X = EX[PP_PC()];
    ir::Function *Callee = X.Callee;
    if (Frames.size() >= 100000) {
      fail(Result, "call stack overflow (runaway recursion)");
      goto done;
    }
    if (TH) {
      TH->onCall(*FR->F, *X.Src, *Callee);
      TH->onEnterFunction(*Callee);
    }
    FR->InstIdx = PP_PC(); // the return path re-reads it via PP_SET_FRAME
    pushFrame(Callee, *FR, *X.Src);
    Frames.back().DF = &Decoded->function(Callee->id());
    PP_SET_FRAME();
    PP_FETCH();
  }
  PP_CASE(ICall) : {
    const DecodedExtra &X = EX[PP_PC()];
    uint64_t Id = R[D->A];
    if (Id >= M.numFunctions()) {
      fail(Result,
           formatString("indirect call to invalid function id %llu in %s",
                        (unsigned long long)Id, FR->F->name().c_str()));
      goto done;
    }
    ir::Function *Callee = M.function(Id);
    MC.indirectBranch(D->Addr, EntryAddrs[Callee->id()]);
    if (Callee->numParams() != X.Src->Args.size()) {
      fail(Result, formatString("indirect call arity mismatch: %s(%u) "
                                "called with %zu args",
                                Callee->name().c_str(), Callee->numParams(),
                                X.Src->Args.size()));
      goto done;
    }
    if (Frames.size() >= 100000) {
      fail(Result, "call stack overflow (runaway recursion)");
      goto done;
    }
    if (TH) {
      TH->onCall(*FR->F, *X.Src, *Callee);
      TH->onEnterFunction(*Callee);
    }
    FR->InstIdx = PP_PC(); // the return path re-reads it via PP_SET_FRAME
    pushFrame(Callee, *FR, *X.Src);
    Frames.back().DF = &Decoded->function(Callee->id());
    PP_SET_FRAME();
    PP_FETCH();
  }

  PP_CASE(Setjmp) : {
    JmpBufs[D->Imm] =
        JmpBuf{Frames.size() - 1, FR->Serial, nullptr, PP_PC(), D->Dst};
    R[D->Dst] = 0;
    PP_NEXT();
  }
  PP_CASE(Longjmp) : {
    auto It = JmpBufs.find(D->Imm);
    if (It == JmpBufs.end()) {
      fail(Result,
           formatString("longjmp to unset buffer %lld", (long long)D->Imm));
      goto done;
    }
    const JmpBuf &Buf = It->second;
    if (Buf.FrameIndex >= Frames.size() ||
        Frames[Buf.FrameIndex].Serial != Buf.Serial) {
      fail(Result, formatString("longjmp to dead frame (buffer %lld)",
                                (long long)D->Imm));
      goto done;
    }
    uint64_t Value = D->bIsImm() ? static_cast<uint64_t>(D->Imm) : R[D->B];
    if (TH)
      TH->onEdgeTaken(*EX[PP_PC()].From, -1);
    // Unwind every frame above the target without returning through it.
    while (Frames.size() - 1 > Buf.FrameIndex) {
      const ir::Function &Dead = *Frames.back().F;
      bool DeadWasSignal = Frames.back().IsSignal;
      if (RT)
        RT->onFrameUnwound(*this, Dead);
      if (TH)
        TH->onUnwindFunction(Dead);
      recycleFrame();
      if (DeadWasSignal) {
        InSignal = false;
        if (RT)
          RT->onSignalReturn(*this);
      }
    }
    PP_SET_FRAME();
    D = Code + Buf.InstIdx + 1; // resume after the setjmp
    R[Buf.Dst] = Value;
    PP_FETCH();
  }

  PP_CASE(RdPic) : {
    R[D->Dst] = MC.counters().readPics();
    PP_NEXT();
  }
  PP_CASE(WrPic) : {
    MC.counters().writePics(
        D->bIsImm() ? static_cast<uint64_t>(D->Imm) : R[D->B]);
    PP_NEXT();
  }

  PP_CASE(Prof) : {
    const DecodedExtra &X = EX[PP_PC()];
    X.Hook(*RT, *this, *X.Src);
    PP_NEXT();
  }
  PP_CASE(ProfNoRuntime) : {
    fail(Result, "profiling pseudo-op executed without a runtime");
    goto done;
  }

  PP_CMPBR(CmpEq, static_cast<uint64_t>(Av == Bv))
  PP_CMPBR(CmpNe, static_cast<uint64_t>(Av != Bv))
  PP_CMPBR(CmpLt, static_cast<uint64_t>(static_cast<int64_t>(Av) <
                                        static_cast<int64_t>(Bv)))
  PP_CMPBR(CmpLe, static_cast<uint64_t>(static_cast<int64_t>(Av) <=
                                        static_cast<int64_t>(Bv)))

fused_br : {
  // Second half of a fused compare+branch: D advances onto the CondBr's
  // own slot and replays the fetch prologue for it — minus the signal and
  // overflow-trap checks, which cannot fire here because fusion is
  // disabled whenever either handler is installed.
  assert(!SigHandler && !TrapH && "fused ops require no async handlers");
  ++D;
  assert(PP_PC() < StreamLen && "ran off end of stream");
  MC.beginInst(D->Addr);
  if (++Executed > Budget)
    goto budget_exhausted;
  bool Taken = FusedCond != 0;
  MC.condBranch(D->Addr, Taken);
  if (TH)
    TH->onEdgeTaken(*EX[PP_PC()].From, Taken ? 0 : 1);
  D = Code + (Taken ? D->T1 : D->T2);
  PP_FETCH();
}

deliver_signal : {
  // Signal delivery at instruction boundaries (resumption semantics,
  // non-nesting): the handler runs as a fresh frame and the interrupted
  // instruction executes after it returns.
  ++SignalsDelivered;
  SignalCountdown = SignalInterval;
  InSignal = true;
  if (RT)
    RT->onSignalDeliver(*this);
  if (TH)
    TH->onEnterFunction(*SigHandler);
  FR->InstIdx = PP_PC(); // Ret from the handler resumes here, unadvanced
  Frame HandlerFrame;
  HandlerFrame.F = SigHandler;
  HandlerFrame.BB = nullptr;
  HandlerFrame.InstIdx = 0;
  HandlerFrame.DF = &Decoded->function(SigHandler->id());
  HandlerFrame.Serial = NextSerial++;
  HandlerFrame.RetDst = ir::NoReg;
  HandlerFrame.IsSignal = true;
  HandlerFrame.Regs.assign(SigHandler->numRegs(), 0);
  HandlerFrame.Ready.assign(SigHandler->numRegs(), 0);
  Frames.push_back(std::move(HandlerFrame));
  PP_SET_FRAME();
  PP_FETCH();
}

budget_exhausted:
  fail(Result, "instruction budget exhausted (likely an infinite loop)");

done:
  Result.ExecutedInsts = Executed;
  return Result;
}
