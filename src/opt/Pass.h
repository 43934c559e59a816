//===- opt/Pass.h - The profile-guided pass pipeline ------------*- C++ -*-===//
///
/// \file
/// The optimizer's pass layer: three profile consumers — hot-path-first
/// block layout, path-based superblock formation (tail duplication along
/// the hottest Ball-Larus path), and CCT-hotness-directed inlining — run
/// in a deterministic, caller-chosen order over one module + ProfileView
/// pair. Each pass reports typed per-pass statistics (what it changed,
/// what it refused and why), and the pipeline re-verifies the module
/// after every pass so a transform bug surfaces as a typed error, never
/// as a miscomputing program.
///
//===----------------------------------------------------------------------===//

#ifndef PP_OPT_PASS_H
#define PP_OPT_PASS_H

#include "opt/ProfileView.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pp {
namespace ir {
class Module;
} // namespace ir

namespace opt {

/// The passes the pipeline knows, in their conventional order.
enum class PassKind : unsigned {
  Layout,     ///< hot-path-first block layout
  Superblock, ///< tail-duplicate the hot path's side-entered suffix
  Inline,     ///< inline call sites whose CCT subtree is hot enough
};

/// CLI/report name of \p Kind ("layout", "superblock", "inline").
const char *passName(PassKind Kind);

/// Pipeline knobs.
struct PassOptions {
  /// Max instructions a single caller may grow by through inlining.
  uint64_t InlineBudget = 256;
  /// Max instructions a single function may add through tail duplication.
  uint64_t DupBudget = 128;
  /// Inline a site when its CCT subtree carries at least
  /// InlineHotNum/InlineHotDen of the whole run's PIC0 (invocations when
  /// the profile recorded no HW metrics). Default: 1/50 = 2%.
  uint64_t InlineHotNum = 1;
  uint64_t InlineHotDen = 50;
  /// Max extra instructions an inlined invocation may execute over the
  /// call it replaces. The VM's Call instruction marshals arguments and
  /// the return value itself, so expansion costs numParams (explicit
  /// argument Movs) plus one result Mov per invocation; a site above this
  /// line is a measured pessimization on this machine, whatever its
  /// hotness, and is refused (counted in CostRefusals).
  uint64_t InlineMaxOverhead = 1;
};

/// What one pass did — and what it declined to do, with the reason
/// bucketed, so "the optimizer did nothing" is always diagnosable.
struct PassStats {
  PassKind Kind = PassKind::Layout;
  unsigned FunctionsConsidered = 0;
  unsigned FunctionsChanged = 0;
  unsigned BlocksDuplicated = 0;
  unsigned SitesInlined = 0;
  uint64_t InstsAdded = 0;
  /// Transforms refused because a budget knob was exhausted.
  unsigned BudgetRefusals = 0;
  /// Inline sites refused because they would unroll recursion (CCT
  /// backedge or a static callee->caller cycle).
  unsigned RecursionRefusals = 0;
  /// Inline sites refused for safety: indirect targets, or callees
  /// containing Setjmp (whose buffer records the frame it runs in).
  unsigned UnsafeRefusals = 0;
  /// Inline sites refused because expansion would execute more
  /// instructions per invocation than the call it replaces
  /// (PassOptions::InlineMaxOverhead).
  unsigned CostRefusals = 0;
};

/// Outcome of a pipeline run.
struct PipelineResult {
  std::vector<PassStats> Passes;
  bool Ok = true;
  /// First verifier failure when !Ok (the module must be discarded).
  std::string Error;
};

/// Parses a comma-separated pass list ("layout,superblock,inline").
/// Unknown names fail with a message in \p Error; duplicates are kept
/// (running a pass twice is allowed and idempotent for layout).
bool parsePasses(const std::string &Text, std::vector<PassKind> &Out,
                 std::string &Error);

/// The individual passes (exposed for targeted tests; runPipeline is the
/// production entry). Each returns its stats and mutates \p M in place.
PassStats runLayoutPass(ir::Module &M, const ProfileView &View);
PassStats runSuperblockPass(ir::Module &M, const ProfileView &View,
                            const PassOptions &Opts);
PassStats runInlinePass(ir::Module &M, const ProfileView &View,
                        const PassOptions &Opts);

/// Runs \p Passes over \p M in order, re-verifying the module after each
/// pass. On a verifier failure the pipeline stops and reports the pass
/// and first problem; \p M is then in an unspecified state and must be
/// discarded.
PipelineResult runPipeline(ir::Module &M, const ProfileView &View,
                           const std::vector<PassKind> &Passes,
                           const PassOptions &Opts);

} // namespace opt
} // namespace pp

#endif // PP_OPT_PASS_H
