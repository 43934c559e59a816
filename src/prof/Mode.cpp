//===- prof/Mode.cpp - Profiling modes --------------------------------------===//

#include "prof/Mode.h"

#include <cassert>

using namespace pp;
using namespace pp::prof;

const char *prof::modeName(Mode M) {
  switch (M) {
  case Mode::None:
    return "Base";
  case Mode::Edge:
    return "Edge";
  case Mode::Flow:
    return "Flow";
  case Mode::FlowHw:
    return "Flow and HW";
  case Mode::Context:
    return "Context";
  case Mode::ContextHw:
    return "Context and HW";
  case Mode::ContextFlow:
    return "Context and Flow";
  case Mode::ContextFlowHw:
    return "Context and Flow and HW";
  }
  assert(false && "invalid mode");
  return "<invalid>";
}
