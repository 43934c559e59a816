//===- collectd/MergeTree.cpp - Windowed incremental merging ------------------===//

#include "collectd/MergeTree.h"

#include "profdb/Merge.h"

using namespace pp;
using namespace pp::collectd;

bool MergeTree::add(profdb::Artifact A, std::string &Error) {
  // Admission trial: fold the candidate into a fresh artifact before
  // anything is mutated. The fold carries the union of every accepted
  // leaf's structure, so a failure rejects this one add with the tree
  // untouched.
  profdb::Artifact NewFold;
  if (Leaves == 0) {
    // First leaf: self-merge exercises the structural checks the decoder
    // does not make (tree shape, backedge consistency), so a structurally
    // corrupt artifact cannot seed a group it would then poison.
    if (!profdb::mergeArtifacts(A, A, NewFold, Error))
      return false;
    NewFold = std::move(A);
  } else if (!profdb::mergeArtifacts(Fold, A, NewFold, Error)) {
    return false;
  }
  Fold = std::move(NewFold);
  ++Leaves;
  return true;
}

const profdb::Artifact *MergeTree::folded(std::string &Error) {
  if (Leaves == 0) {
    Error = "empty merge tree";
    return nullptr;
  }
  return &Fold;
}
