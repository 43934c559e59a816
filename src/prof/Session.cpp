//===- prof/Session.cpp - One profiling run end to end ----------------------===//

#include "prof/Session.h"

#include "obs/Obs.h"
#include "support/Error.h"

#include <cassert>

using namespace pp;
using namespace pp::prof;

/// The stager's mutable cross-stage state: the partially built outcome,
/// the acquisition engine doing the mode-specific work, and the execution
/// apparatus (machine, VM) stages 2-4 share.
struct RunStager::State {
  RunOutcome Outcome;
  std::unique_ptr<AcquisitionEngine> Engine;
  std::unique_ptr<hw::Machine> Machine;
  std::unique_ptr<vm::Vm> VM;
  /// Span label shared by the four stage spans: "exact/flowhw",
  /// "overflow/context", ... — what pp-report obs breaks acquisition cost
  /// down by.
  std::string SpanLabel;
  bool Instrumented = false;
  bool Loaded = false;
  bool Executed = false;
};

RunStager::RunStager(const ir::Module &M, const SessionOptions &Options)
    : M(M), Options(Options), S(std::make_unique<State>()) {
  S->Engine = makeAcquisitionEngine(M, Options);
  S->SpanLabel =
      std::string(S->Engine->name()) + "/" + modeName(Options.Config.M);
}

RunStager::~RunStager() = default;

void RunStager::instrument() {
  assert(!S->Instrumented && "instrument() runs once");
  obs::SpanScope Span("prof", "instrument", S->SpanLabel);
  S->Outcome.Instr = S->Engine->prepare();
  S->Instrumented = true;
}

void RunStager::load() {
  assert(S->Instrumented && !S->Loaded && "load() follows instrument()");
  obs::SpanScope Span("prof", "load", S->SpanLabel);
  S->Machine = std::make_unique<hw::Machine>(Options.MachineCfg);
  S->Machine->counters().selectPicEvents(Options.Config.Pic0,
                                         Options.Config.Pic1);

  S->VM = std::make_unique<vm::Vm>(*S->Outcome.Instr.M, *S->Machine);
  S->VM->setEngine(Options.Engine);
  S->VM->setMaxInsts(Options.MaxInsts);
  if (!Options.SignalHandler.empty()) {
    ir::Function *Handler =
        S->Outcome.Instr.M->findFunction(Options.SignalHandler);
    if (!Handler)
      reportFatalError("signal handler '" + Options.SignalHandler +
                       "' not found");
    S->VM->setSignal(Handler, Options.SignalInterval);
  }

  S->Engine->attach(*S->Machine, *S->VM, S->Outcome.Instr);
  S->Loaded = true;
}

void RunStager::execute() {
  assert(S->Loaded && !S->Executed && "execute() follows load()");
  obs::SpanScope Span("prof", "execute", S->SpanLabel);
  S->Outcome.Result = S->VM->run();
  Span.setWork(S->Machine->counters().total(hw::Event::Cycles));
  S->Executed = true;
}

const Instrumented &RunStager::instrumented() const {
  assert(S->Instrumented && "no instrumented module before instrument()");
  return S->Outcome.Instr;
}

RunOutcome RunStager::extract() {
  assert(S->Executed && "extract() follows execute()");
  obs::SpanScope Span("prof", "extract", S->SpanLabel);
  RunOutcome &Outcome = S->Outcome;
  hw::Machine &Machine = *S->Machine;

  for (unsigned E = 0; E != hw::NumEvents; ++E)
    Outcome.Totals[E] = Machine.counters().total(static_cast<hw::Event>(E));

  S->Engine->extract(Outcome, Machine);

  Outcome.Functions.reserve(M.numFunctions());
  for (size_t Id = 0; Id != M.numFunctions(); ++Id)
    Outcome.Functions.push_back(M.function(Id)->name());

  return std::move(S->Outcome);
}

RunOutcome prof::runProfile(const ir::Module &M,
                            const SessionOptions &Options) {
  RunStager Stager(M, Options);
  Stager.instrument();
  Stager.load();
  Stager.execute();
  return Stager.extract();
}
