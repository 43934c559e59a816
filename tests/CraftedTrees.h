//===- tests/CraftedTrees.h - Hand-edited CCT images -----------*- C++ -*-===//
//
// Edits of a tree image that decode cleanly but break what the canonical
// CCT emission relies on, for the merge tests of profdb and collectd. A
// tree rebuilt from an edited image is exactly what decodeArtifact hands
// over for a re-encoded file with a valid CRC.
//
//===----------------------------------------------------------------------===//

#ifndef PP_TESTS_CRAFTED_TREES_H
#define PP_TESTS_CRAFTED_TREES_H

#include "cct/CallingContextTree.h"
#include "profdb/Artifact.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace pp {
namespace testutil {

/// A copy of \p A whose CCT is rebuilt from its image after \p Edit.
inline profdb::Artifact
withEditedTree(const profdb::Artifact &A,
               const std::function<void(cct::TreeImage &)> &Edit) {
  profdb::Artifact Out = profdb::cloneArtifact(A);
  cct::TreeImage Image = A.Tree->image();
  Edit(Image);
  Out.Tree = cct::CallingContextTree::fromImage(Image);
  EXPECT_NE(Out.Tree, nullptr);
  return Out;
}

/// A record reached through a direct slot of its parent.
struct DirectChild {
  size_t Parent = 0, Slot = 0, Child = 0;
};

/// Whether record \p Index resolves none of its slots.
inline bool isLeaf(const cct::TreeImage &Image, size_t Index) {
  for (const cct::TreeImage::Slot &Slot : Image.Records[Index].Slots)
    if (!Slot.Targets.empty())
      return false;
  return true;
}

/// The first direct child in \p Image whose parent is record \p MinParent
/// or later; with \p LeafOnly, the first that resolves none of its slots.
inline bool findDirectChild(const cct::TreeImage &Image, DirectChild &Out,
                            bool LeafOnly = false, size_t MinParent = 0) {
  for (size_t P = MinParent; P != Image.Records.size(); ++P)
    for (size_t S = 0; S != Image.Records[P].Slots.size(); ++S) {
      const cct::TreeImage::Slot &Slot = Image.Records[P].Slots[S];
      if (Slot.Kind !=
              static_cast<uint8_t>(cct::CallRecord::Slot::Kind::Record) ||
          Slot.Targets.size() != 1)
        continue;
      size_t C = Slot.Targets[0].first;
      if (Image.Records[C].Parent != static_cast<int64_t>(P))
        continue;
      if (LeafOnly && !isLeaf(Image, C))
        continue;
      Out = {P, S, C};
      return true;
    }
  return false;
}

/// Moves a direct child into an extra slot past its parent procedure's
/// call sites.
inline void moveChildToExtraSlot(cct::TreeImage &Image) {
  DirectChild E;
  ASSERT_TRUE(findDirectChild(Image, E));
  std::vector<cct::TreeImage::Slot> &Slots = Image.Records[E.Parent].Slots;
  Slots.push_back(Slots[E.Slot]);
  Slots[E.Slot] = {};
}

/// Drops every strict descendant of record \p Root, renumbering the rest.
/// Nothing outside the subtree can target it: slots reach children and
/// ancestors only.
inline void pruneSubtree(cct::TreeImage &Image, size_t Root) {
  size_t N = Image.Records.size();
  std::vector<uint8_t> Dropped(N, 0);
  std::vector<uint64_t> NewIndex(N, 0);
  std::vector<cct::TreeImage::Record> Kept;
  for (size_t I = 0; I != N; ++I) {
    int64_t Parent = Image.Records[I].Parent;
    if (Parent >= 0 && (static_cast<size_t>(Parent) == Root ||
                        Dropped[static_cast<size_t>(Parent)])) {
      Dropped[I] = 1;
      continue;
    }
    NewIndex[I] = Kept.size();
    Kept.push_back(std::move(Image.Records[I]));
  }
  for (cct::TreeImage::Record &Rec : Kept) {
    if (Rec.Parent >= 0)
      Rec.Parent = static_cast<int64_t>(NewIndex[Rec.Parent]);
    for (cct::TreeImage::Slot &Slot : Rec.Slots)
      for (auto &Target : Slot.Targets)
        Target.first = NewIndex[Target.first];
  }
  Image.Records = std::move(Kept);
}

/// Turns a child in a direct slot into a leaf of another procedure, one
/// not on its root path. On its own the tree is sound; against the
/// original it resolves one direct slot to two callees.
inline void swapLeafCallee(cct::TreeImage &Image) {
  DirectChild E;
  ASSERT_TRUE(findDirectChild(Image, E, /*LeafOnly=*/false, /*MinParent=*/1) ||
              findDirectChild(Image, E));
  // Descendants follow their ancestors, so the child keeps its index.
  pruneSubtree(Image, E.Child);
  size_t Child = E.Child;
  cct::TreeImage::Record &Leaf = Image.Records[Child];
  for (cct::ProcId P = 0; P != Image.Procs.size(); ++P) {
    bool OnPath = false;
    for (int64_t Walk = static_cast<int64_t>(Child); Walk >= 0;
         Walk = Image.Records[static_cast<size_t>(Walk)].Parent)
      OnPath |= Image.Records[static_cast<size_t>(Walk)].Proc == P;
    if (OnPath)
      continue;
    Leaf.Proc = P;
    Leaf.Slots.assign(Image.Procs[P].NumSites, {});
    return;
  }
  FAIL() << "every procedure is on the leaf's root path";
}

} // namespace testutil
} // namespace pp

#endif // PP_TESTS_CRAFTED_TREES_H
