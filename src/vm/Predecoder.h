//===- vm/Predecoder.h - Predecoded instruction streams --------*- C++ -*-===//
///
/// \file
/// Lowers each ir::Function once into a flat stream of DecodedInst — the
/// threaded engine's execution format. Predecoding pays the per-instruction
/// decode cost (operand-B register/immediate selection, successor block
/// lookups, switch-target vectors, profiling pseudo-op hook resolution)
/// exactly once per function instead of on every dynamic execution, the
/// same economy the paper demands of its instrumentation sequences: keep
/// the recurring per-event cost minimal, push everything movable to setup.
///
/// The decoded stream preserves reference-interpreter semantics bit for
/// bit: the same Machine events fire in the same order, the same error
/// strings surface on the same dynamic instruction, the same tracer and
/// runtime callbacks run. Only the dispatch mechanics differ.
///
//===----------------------------------------------------------------------===//

#ifndef PP_VM_PREDECODER_H
#define PP_VM_PREDECODER_H

#include "vm/Vm.h"

#include <cstdint>
#include <vector>

namespace pp {
namespace vm {

/// Decoded operation kinds. Register/immediate variants of the integer ops
/// are split (suffix RR/RI) so the hot handlers read their second operand
/// unconditionally; rarer ops keep the BIsImm flag.
enum class DOp : uint8_t {
  MovR,
  MovI,
  AddRR,
  AddRI,
  SubRR,
  SubRI,
  MulRR,
  MulRI,
  DivRR,
  DivRI,
  RemRR,
  RemRI,
  AndRR,
  AndRI,
  OrRR,
  OrRI,
  XorRR,
  XorRI,
  ShlRR,
  ShlRI,
  ShrRR,
  ShrRI,
  CmpEqRR,
  CmpEqRI,
  CmpNeRR,
  CmpNeRI,
  CmpLtRR,
  CmpLtRI,
  CmpLeRR,
  CmpLeRI,
  FAdd,
  FSub,
  FMul,
  FDiv,
  FCmpLt,
  FCmpLe,
  FCmpEq,
  IntToFp,
  FpToInt,
  LoadAbs, // absolute address (A == NoReg)
  LoadReg, // base register + immediate offset
  StoreAbs,
  StoreReg,
  Alloc,
  Br,
  CondBr,
  Switch,
  Ret,
  Call,
  ICall,
  Setjmp,
  Longjmp,
  RdPic,
  WrPic,
  Prof,          // pre-bound profiling pseudo-op (Hook set)
  ProfNoRuntime, // profiling pseudo-op with no runtime attached: fails
  // Fused compare + conditional branch. The pair occupies its original two
  // stream slots (the CondBr keeps its own slot, operands, and address);
  // the fused handler executes both instructions' full effects —
  // including the branch's fetch accounting and budget check — in one
  // dispatch. Emitted only when no signal or trap handler is installed,
  // so no delivery boundary can fall between the two halves.
  CmpEqRRBr,
  CmpEqRIBr,
  CmpNeRRBr,
  CmpNeRIBr,
  CmpLtRRBr,
  CmpLtRIBr,
  CmpLeRRBr,
  CmpLeRIBr,
  // A flowhw array-mode path commit: the 14-slot sequence MulRI AddRI
  // LoadReg AddRI StoreReg RdPic AndRI ShrRI LoadReg AddRR StoreReg LoadReg
  // AddRR StoreReg (Instrumenter's commitSequence). Only slot 0's opcode
  // is rewritten; the handler runs all 14 slots in order, each with its
  // own fetch, budget check and machine effects, reading each slot's
  // operands from that slot. Emitted under the same gate as cmp+branch
  // fusion.
  PathCommitHw,
  NumDOps
};

/// One predecoded instruction — exactly 32 bytes (two per host cache
/// line), carrying only what the hot dispatch path reads. Branch targets
/// are offsets into the owning function's flat stream; everything that is
/// pointer-sized and cold (call argument lists, tracer blocks, runtime
/// hooks) lives in the parallel DecodedExtra array.
struct DecodedInst {
  int64_t Imm = 0;
  /// Simulated code address (drives beginInst and branch-predictor keys).
  /// The simulated layout tops out far below 4 GB; the decoder asserts.
  uint32_t Addr = 0;
  /// Primary successor offset (Br, CondBr true edge, Switch default).
  uint32_t T1 = 0;
  /// CondBr false-edge offset; for Switch, the base index into the owning
  /// function's SwitchPool.
  uint32_t T2 = 0;
  /// Switch target count.
  uint32_t NTargets = 0;
  /// Register numbers, narrowed (the decoder asserts they fit; an absent
  /// register truncates to 0xffff and is never read).
  uint16_t Dst = 0;
  uint16_t A = 0;
  uint16_t B = 0;
  DOp Op = DOp::MovI;
  /// Bit 0: second-operand-is-immediate, for the ops that keep the flag
  /// (FP arithmetic, stores, Alloc, Ret, Longjmp, WrPic). Bits 1-4: the
  /// memory access width for LoadAbs/LoadReg/StoreAbs/StoreReg. Bit 7:
  /// same-line fetch (see FlagSameLine).
  uint8_t Flags = 0;

  static constexpr uint8_t FlagBIsImm = 1;
  /// The stream predecessor falls through to this instruction and fetched
  /// from the same I-cache line, so this fetch's probe could only hit the
  /// cache's MRU filter and the engine skips it. Set only under the
  /// fusion gate: a signal handler's fetches could otherwise fall between
  /// the two.
  static constexpr uint8_t FlagSameLine = 0x80;
  bool bIsImm() const { return Flags & FlagBIsImm; }
  bool sameLine() const { return Flags & FlagSameLine; }
  unsigned size() const { return (Flags >> 1) & 0xf; }
};
static_assert(sizeof(DecodedInst) == 32,
              "DecodedInst must stay two-per-cache-line");

/// Cold per-instruction data, parallel to DecodedFunction::Stream; only
/// call, profiling, and tracer paths touch it.
struct DecodedExtra {
  /// The original instruction (argument vectors, pseudo-op operands).
  const ir::Inst *Src = nullptr;
  /// The owning basic block (canonical-edge tracer callbacks).
  const ir::BasicBlock *From = nullptr;
  /// Direct-call target.
  ir::Function *Callee = nullptr;
  /// Pre-bound profiling runtime handler (DOp::Prof only).
  ProfRuntime::HookFn Hook = nullptr;
};

/// One function's decoded stream. Block boundaries disappear: successor
/// references become stream offsets, and the entry block starts at 0.
struct DecodedFunction {
  ir::Function *F = nullptr;
  std::vector<DecodedInst> Stream;
  /// Parallel cold data: Extras[i] belongs to Stream[i].
  std::vector<DecodedExtra> Extras;
  /// Flattened Switch target offsets (DecodedInst::T2 indexes here).
  std::vector<uint32_t> SwitchPool;
};

/// Decodes a whole module. Runs after layout (instruction addresses must
/// be assigned) and after the profiling runtime is attached, so pseudo-op
/// hooks bind to their final receiver.
class Predecoder {
public:
  /// \p FastPaths enables the compare+branch and path-commit
  /// superinstructions and the same-line fetch flags for an I-cache of
  /// \p ICacheLineBytes lines. The engine passes false when a signal or
  /// trap handler is installed (delivery must be able to preempt every
  /// instruction boundary).
  Predecoder(ir::Module &M, ProfRuntime *RT, bool FastPaths,
             uint64_t ICacheLineBytes);

  const DecodedFunction &function(unsigned Id) const { return Funcs[Id]; }
  DecodedFunction &function(unsigned Id) { return Funcs[Id]; }
  size_t numFunctions() const { return Funcs.size(); }

private:
  void decodeFunction(ir::Function &F, ProfRuntime *RT, bool FastPaths,
                      uint64_t ICacheLineBytes, DecodedFunction &Out);

  std::vector<DecodedFunction> Funcs;
};

} // namespace vm
} // namespace pp

#endif // PP_VM_PREDECODER_H
