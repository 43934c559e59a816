//===- vm/Vm.cpp - IR interpreter on the simulated machine -----------------===//

#include "vm/Vm.h"

#include "vm/Predecoder.h"

#include "obs/Obs.h"
#include "support/Error.h"
#include "support/Format.h"

#include <bit>
#include <cassert>
#include <limits>

using namespace pp;
using namespace pp::vm;
using ir::Inst;
using ir::Opcode;

ProfRuntime::~ProfRuntime() = default;
Tracer::~Tracer() = default;
TrapHandler::~TrapHandler() = default;

Vm::Vm(ir::Module &M, hw::Machine &Machine) : M(M), Machine(Machine) {
  layout();
}

Vm::~Vm() = default;

RunResult Vm::run() {
  RunResult Result =
      Eng == Engine::Threaded ? runThreaded() : runReference();
  // One add per run, not per instruction: the dispatch loops stay
  // untouched.
  obs::add(obs::Counter::VmInsts, Result.ExecutedInsts);
  return Result;
}

void Vm::deliverOverflowTrap(uint64_t Pc) {
  // Hardware delivery order: the wrap disarms the trap (the handler
  // re-arms for the next period), the pipeline flush costs cycles, then
  // the handler observes the machine with the interrupted PC.
  Machine.counters().disarmOverflowTrap();
  Machine.addCycles(Machine.cost().TrapDeliveryCycles);
  ++TrapsDelivered;
  TrapHook->onOverflowTrap(*this, Pc);
}

void Vm::layout() {
  // Code layout: 4 bytes per instruction, functions back to back, blocks in
  // creation order (instrumentation-added blocks land at the function's
  // tail, growing its I-cache footprint like EEL's edited-code layout).
  uint64_t Addr = layout::CodeBase;
  EntryAddrs.assign(M.numFunctions(), 0);
  for (const auto &F : M.functions()) {
    EntryAddrs[F->id()] = Addr;
    for (const auto &BB : F->blocks()) {
      for (Inst &I : BB->insts()) {
        I.Addr = Addr;
        Addr += layout::BytesPerInst;
      }
    }
  }
  // Globals: initial contents into memory (addresses were assigned when the
  // globals were declared).
  for (size_t Index = 0; Index != M.numGlobals(); ++Index) {
    const ir::Global &G = M.global(Index);
    if (!G.Init.empty())
      Machine.memory().pokeBytes(G.Addr, G.Init.data(), G.Init.size());
  }
}

uint64_t Vm::reg(ir::Reg R) const {
  assert(!Frames.empty() && R < Frames.back().Regs.size());
  return Frames.back().Regs[R];
}

void Vm::setReg(ir::Reg R, uint64_t Value) {
  assert(!Frames.empty() && R < Frames.back().Regs.size());
  Frames.back().Regs[R] = Value;
}

uint64_t Vm::heapAlloc(uint64_t Size) {
  uint64_t Addr = (HeapNext + 15) & ~uint64_t(15);
  HeapNext = Addr + Size;
  if (HeapNext >= layout::CctHeapBase)
    reportFatalError("simulated program heap exhausted");
  return Addr;
}

void Vm::fail(RunResult &Result, const std::string &Message) {
  Result.Ok = false;
  Result.Error = Message;
  Frames.clear();
}

void Vm::pushFrame(ir::Function *Callee, const Frame &Caller,
                   const Inst &CallInst) {
  Frame NewFrame = takePooledFrame();
  NewFrame.F = Callee;
  NewFrame.BB = Callee->entry();
  NewFrame.InstIdx = 0;
  NewFrame.DF = nullptr;
  NewFrame.Serial = NextSerial++;
  NewFrame.RetDst = CallInst.Dst;
  NewFrame.IsSignal = false;
  NewFrame.Regs.assign(Callee->numRegs(), 0);
  NewFrame.Ready.assign(Callee->numRegs(), 0);
  assert(CallInst.Args.size() == Callee->numParams() && "arity mismatch");
  for (size_t Index = 0; Index != CallInst.Args.size(); ++Index)
    NewFrame.Regs[Index] = Caller.Regs[CallInst.Args[Index]];
  Frames.push_back(std::move(NewFrame));
}

void Vm::takeEdge(Frame &FR, const ir::BasicBlock &From, int SuccIndex,
                  ir::BasicBlock *To) {
  if (TracerHook)
    TracerHook->onEdgeTaken(From, SuccIndex);
  FR.BB = To;
  FR.InstIdx = 0;
}

RunResult Vm::runReference() {
  RunResult Result;
  ir::Function *Main = M.main();
  if (!Main) {
    Result.Error = "module has no main function";
    return Result;
  }

  Frames.clear();
  {
    Frame Initial;
    Initial.F = Main;
    Initial.BB = Main->entry();
    Initial.InstIdx = 0;
    Initial.Serial = NextSerial++;
    Initial.RetDst = ir::NoReg;
    Initial.Regs.assign(Main->numRegs(), 0);
    Initial.Ready.assign(Main->numRegs(), 0);
    Frames.push_back(std::move(Initial));
  }
  if (TracerHook)
    TracerHook->onEnterFunction(*Main);

  Result.Ok = true;
  while (!Frames.empty()) {
    // Signal delivery at instruction boundaries (resumption semantics,
    // non-nesting): the handler runs as a fresh frame and the interrupted
    // instruction executes after it returns.
    if (SignalHandler && !InSignal) {
      if (SignalCountdown == 0) {
        ++SignalsDelivered;
        SignalCountdown = SignalInterval;
        InSignal = true;
        if (Runtime)
          Runtime->onSignalDeliver(*this);
        if (TracerHook)
          TracerHook->onEnterFunction(*SignalHandler);
        Frame HandlerFrame;
        HandlerFrame.F = SignalHandler;
        HandlerFrame.BB = SignalHandler->entry();
        HandlerFrame.InstIdx = 0;
        HandlerFrame.Serial = NextSerial++;
        HandlerFrame.RetDst = ir::NoReg;
        HandlerFrame.IsSignal = true;
        HandlerFrame.Regs.assign(SignalHandler->numRegs(), 0);
        HandlerFrame.Ready.assign(SignalHandler->numRegs(), 0);
        Frames.push_back(std::move(HandlerFrame));
        continue;
      }
      // Tick the interval timer before the instruction executes (the
      // threaded engine's prologue agrees): delivery points are identical
      // either way, since the countdown decrements exactly once per
      // executed instruction between boundary checks. The timer pauses
      // while the handler runs, so a handler longer than the interval
      // cannot livelock the program.
      --SignalCountdown;
    }

    Frame &FR = Frames.back();
    assert(FR.InstIdx < FR.BB->insts().size() && "ran off end of block");
    const Inst &I = FR.BB->insts()[FR.InstIdx];

    // Counter-overflow traps fire at the same boundary: after signal
    // work, before the interrupted instruction issues (the threaded
    // prologue agrees, so delivery points are engine-identical).
    if (TrapHook && Machine.counters().overflowPending())
      deliverOverflowTrap(I.Addr);

    Machine.beginInst(I.Addr);
    if (++Result.ExecutedInsts > MaxInsts) {
      fail(Result, "instruction budget exhausted (likely an infinite loop)");
      break;
    }

    switch (I.Op) {
    case Opcode::Mov:
      FR.Regs[I.Dst] = operandB(FR, I);
      break;
    case Opcode::Add:
      FR.Regs[I.Dst] = FR.Regs[I.A] + operandB(FR, I);
      break;
    case Opcode::Sub:
      FR.Regs[I.Dst] = FR.Regs[I.A] - operandB(FR, I);
      break;
    case Opcode::Mul:
      FR.Regs[I.Dst] = FR.Regs[I.A] * operandB(FR, I);
      break;
    case Opcode::Div: {
      Machine.addCycles(Machine.cost().DivCycles);
      int64_t Lhs = static_cast<int64_t>(FR.Regs[I.A]);
      int64_t Rhs = static_cast<int64_t>(operandB(FR, I));
      if (Rhs == 0)
        FR.Regs[I.Dst] = 0;
      else if (Lhs == std::numeric_limits<int64_t>::min() && Rhs == -1)
        FR.Regs[I.Dst] = static_cast<uint64_t>(Lhs);
      else
        FR.Regs[I.Dst] = static_cast<uint64_t>(Lhs / Rhs);
      break;
    }
    case Opcode::Rem: {
      Machine.addCycles(Machine.cost().DivCycles);
      int64_t Lhs = static_cast<int64_t>(FR.Regs[I.A]);
      int64_t Rhs = static_cast<int64_t>(operandB(FR, I));
      if (Rhs == 0 || (Lhs == std::numeric_limits<int64_t>::min() && Rhs == -1))
        FR.Regs[I.Dst] = 0;
      else
        FR.Regs[I.Dst] = static_cast<uint64_t>(Lhs % Rhs);
      break;
    }
    case Opcode::And:
      FR.Regs[I.Dst] = FR.Regs[I.A] & operandB(FR, I);
      break;
    case Opcode::Or:
      FR.Regs[I.Dst] = FR.Regs[I.A] | operandB(FR, I);
      break;
    case Opcode::Xor:
      FR.Regs[I.Dst] = FR.Regs[I.A] ^ operandB(FR, I);
      break;
    case Opcode::Shl:
      FR.Regs[I.Dst] = FR.Regs[I.A] << (operandB(FR, I) & 63);
      break;
    case Opcode::Shr:
      FR.Regs[I.Dst] = FR.Regs[I.A] >> (operandB(FR, I) & 63);
      break;
    case Opcode::CmpEq:
      FR.Regs[I.Dst] = FR.Regs[I.A] == operandB(FR, I);
      break;
    case Opcode::CmpNe:
      FR.Regs[I.Dst] = FR.Regs[I.A] != operandB(FR, I);
      break;
    case Opcode::CmpLt:
      FR.Regs[I.Dst] = static_cast<int64_t>(FR.Regs[I.A]) <
                       static_cast<int64_t>(operandB(FR, I));
      break;
    case Opcode::CmpLe:
      FR.Regs[I.Dst] = static_cast<int64_t>(FR.Regs[I.A]) <=
                       static_cast<int64_t>(operandB(FR, I));
      break;

    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv:
    case Opcode::FCmpLt:
    case Opcode::FCmpLe:
    case Opcode::FCmpEq: {
      // FP scoreboard: stall until both operands are ready.
      uint64_t ReadyAt = FR.Ready[I.A];
      if (!I.BIsImm)
        ReadyAt = std::max(ReadyAt, FR.Ready[I.B]);
      uint64_t Now = Machine.now();
      if (ReadyAt > Now)
        Machine.stall(hw::Event::FpStall, ReadyAt - Now);
      double Lhs = std::bit_cast<double>(FR.Regs[I.A]);
      double Rhs = std::bit_cast<double>(operandB(FR, I));
      uint64_t Value;
      uint64_t Latency = Machine.cost().FpLatency;
      switch (I.Op) {
      case Opcode::FAdd:
        Value = std::bit_cast<uint64_t>(Lhs + Rhs);
        break;
      case Opcode::FSub:
        Value = std::bit_cast<uint64_t>(Lhs - Rhs);
        break;
      case Opcode::FMul:
        Value = std::bit_cast<uint64_t>(Lhs * Rhs);
        break;
      case Opcode::FDiv:
        Value = std::bit_cast<uint64_t>(Lhs / Rhs);
        Latency = Machine.cost().FpDivLatency;
        break;
      case Opcode::FCmpLt:
        Value = Lhs < Rhs;
        Latency = 1;
        break;
      case Opcode::FCmpLe:
        Value = Lhs <= Rhs;
        Latency = 1;
        break;
      default: // FCmpEq
        Value = Lhs == Rhs;
        Latency = 1;
        break;
      }
      FR.Regs[I.Dst] = Value;
      FR.Ready[I.Dst] = Machine.now() + Latency;
      break;
    }
    case Opcode::IntToFp:
      FR.Regs[I.Dst] = std::bit_cast<uint64_t>(
          static_cast<double>(static_cast<int64_t>(FR.Regs[I.A])));
      break;
    case Opcode::FpToInt:
      FR.Regs[I.Dst] = static_cast<uint64_t>(
          static_cast<int64_t>(std::bit_cast<double>(FR.Regs[I.A])));
      break;

    case Opcode::Load: {
      uint64_t Addr =
          (I.A == ir::NoReg ? 0 : FR.Regs[I.A]) + static_cast<uint64_t>(I.Imm);
      if (Addr < layout::CodeBase) {
        fail(Result, formatString("load from unmapped address 0x%llx in %s",
                                  (unsigned long long)Addr,
                                  FR.F->name().c_str()));
        continue;
      }
      FR.Regs[I.Dst] = Machine.load(Addr, I.Size);
      FR.Ready[I.Dst] = Machine.now() + Machine.cost().LoadLatency;
      break;
    }
    case Opcode::Store: {
      uint64_t Addr =
          (I.A == ir::NoReg ? 0 : FR.Regs[I.A]) + static_cast<uint64_t>(I.Imm);
      if (Addr < layout::CodeBase) {
        fail(Result, formatString("store to unmapped address 0x%llx in %s",
                                  (unsigned long long)Addr,
                                  FR.F->name().c_str()));
        continue;
      }
      Machine.store(Addr, I.Size, operandB(FR, I));
      break;
    }
    case Opcode::Alloc:
      FR.Regs[I.Dst] = heapAlloc(operandB(FR, I));
      break;

    case Opcode::Br:
      takeEdge(FR, *FR.BB, 0, I.T1);
      continue;
    case Opcode::CondBr: {
      bool Taken = FR.Regs[I.A] != 0;
      Machine.condBranch(I.Addr, Taken);
      takeEdge(FR, *FR.BB, Taken ? 0 : 1, Taken ? I.T1 : I.T2);
      continue;
    }
    case Opcode::Switch: {
      uint64_t Index = FR.Regs[I.A];
      ir::BasicBlock *Target;
      int SuccIndex;
      if (Index < I.SwitchTargets.size()) {
        Target = I.SwitchTargets[Index];
        SuccIndex = static_cast<int>(Index) + 1;
      } else {
        Target = I.T1;
        SuccIndex = 0;
      }
      Machine.indirectBranch(I.Addr, Target->insts().front().Addr);
      takeEdge(FR, *FR.BB, SuccIndex, Target);
      continue;
    }
    case Opcode::Ret: {
      uint64_t Value = operandB(FR, I);
      if (TracerHook) {
        TracerHook->onEdgeTaken(*FR.BB, -1);
        TracerHook->onExitFunction(*FR.F);
      }
      ir::Reg Dst = FR.RetDst;
      bool WasSignal = FR.IsSignal;
      recycleFrame();
      if (WasSignal) {
        // Resume the interrupted instruction stream exactly where it was.
        InSignal = false;
        if (Runtime)
          Runtime->onSignalReturn(*this);
        continue;
      }
      if (Frames.empty()) {
        Result.ExitValue = Value;
        break;
      }
      Frame &Caller = Frames.back();
      if (Dst != ir::NoReg)
        Caller.Regs[Dst] = Value;
      ++Caller.InstIdx; // step past the call
      continue;
    }

    case Opcode::Call:
    case Opcode::ICall: {
      ir::Function *Callee;
      if (I.Op == Opcode::Call) {
        Callee = I.Callee;
      } else {
        uint64_t Id = FR.Regs[I.A];
        if (Id >= M.numFunctions()) {
          fail(Result,
               formatString("indirect call to invalid function id %llu in %s",
                            (unsigned long long)Id, FR.F->name().c_str()));
          continue;
        }
        Callee = M.function(Id);
        Machine.indirectBranch(I.Addr, EntryAddrs[Callee->id()]);
        if (Callee->numParams() != I.Args.size()) {
          fail(Result, formatString("indirect call arity mismatch: %s(%u) "
                                    "called with %zu args",
                                    Callee->name().c_str(),
                                    Callee->numParams(), I.Args.size()));
          continue;
        }
      }
      if (Frames.size() >= 100000) {
        fail(Result, "call stack overflow (runaway recursion)");
        continue;
      }
      if (TracerHook) {
        TracerHook->onCall(*FR.F, I, *Callee);
        TracerHook->onEnterFunction(*Callee);
      }
      pushFrame(Callee, FR, I);
      continue; // FR reference is invalidated by the push
    }

    case Opcode::Setjmp:
      JmpBufs[I.Imm] =
          JmpBuf{Frames.size() - 1, FR.Serial, FR.BB, FR.InstIdx, I.Dst};
      FR.Regs[I.Dst] = 0;
      break;
    case Opcode::Longjmp: {
      auto It = JmpBufs.find(I.Imm);
      if (It == JmpBufs.end()) {
        fail(Result, formatString("longjmp to unset buffer %lld",
                                  (long long)I.Imm));
        continue;
      }
      const JmpBuf &Buf = It->second;
      if (Buf.FrameIndex >= Frames.size() ||
          Frames[Buf.FrameIndex].Serial != Buf.Serial) {
        fail(Result, formatString("longjmp to dead frame (buffer %lld)",
                                  (long long)I.Imm));
        continue;
      }
      uint64_t Value = operandB(FR, I);
      if (TracerHook)
        TracerHook->onEdgeTaken(*FR.BB, -1);
      // Unwind every frame above the target without returning through it.
      while (Frames.size() - 1 > Buf.FrameIndex) {
        const ir::Function &Dead = *Frames.back().F;
        bool DeadWasSignal = Frames.back().IsSignal;
        if (Runtime)
          Runtime->onFrameUnwound(*this, Dead);
        if (TracerHook)
          TracerHook->onUnwindFunction(Dead);
        recycleFrame();
        if (DeadWasSignal) {
          InSignal = false;
          if (Runtime)
            Runtime->onSignalReturn(*this);
        }
      }
      Frame &Target = Frames.back();
      Target.BB = Buf.BB;
      Target.InstIdx = Buf.InstIdx + 1; // resume after the setjmp
      Target.Regs[Buf.Dst] = Value;
      continue;
    }

    case Opcode::RdPic:
      FR.Regs[I.Dst] = Machine.counters().readPics();
      break;
    case Opcode::WrPic:
      Machine.counters().writePics(operandB(FR, I));
      break;

    case Opcode::PathHashCommit:
    case Opcode::CctEnter:
    case Opcode::CctCall:
    case Opcode::CctExit:
    case Opcode::CctPathCommit:
    case Opcode::CctHwProbe:
      if (!Runtime) {
        fail(Result, "profiling pseudo-op executed without a runtime");
        continue;
      }
      Runtime->bindOp(I)(*Runtime, *this, I);
      break;

    case Opcode::NumOpcodes:
      unreachable("invalid opcode");
    }

    if (Frames.empty())
      break;
    ++Frames.back().InstIdx;
  }
  return Result;
}
