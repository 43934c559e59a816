//===- collectd/MergeTree.cpp - Windowed incremental merging ------------------===//

#include "collectd/MergeTree.h"

using namespace pp;
using namespace pp::collectd;

const profdb::Artifact *MergeTree::folded(std::string &Error) {
  if (Merged.inputs() == 0) {
    Error = "empty merge tree";
    return nullptr;
  }
  return &Merged.result();
}
