//===- tests/CraftedTrees.h - Hand-edited CCT images -----------*- C++ -*-===//
//
// Edits of a tree's artifact bytes (cct::writeTree), made through a
// test-only image of them, for the merge tests of profdb and collectd and
// for the decoder's own tests. encodeWithEditedImage writes an edited
// image under a valid CRC, as a writer that encodes an impossible tree
// would leave it on disk; withEditedTree is what decodeArtifact hands
// over for such a file when the edit still reads as a tree, but breaks
// what the canonical CCT emission relies on.
//
//===----------------------------------------------------------------------===//

#ifndef PP_TESTS_CRAFTED_TREES_H
#define PP_TESTS_CRAFTED_TREES_H

#include "cct/CallingContextTree.h"
#include "cct/ImageIO.h"
#include "profdb/Artifact.h"
#include "support/Checksum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

namespace pp {
namespace testutil {

/// The fields of cct::writeTree's bytes, one for one, in a form a test
/// can edit: records by index, slots as (record index, cell address)
/// targets.
struct TreeImage {
  struct Slot {
    /// Mirrors CallRecord::Slot::Kind.
    uint8_t Kind = 0;
    std::vector<std::pair<uint64_t, uint64_t>> Targets;
  };
  struct Record {
    cct::ProcId Proc = cct::RootProcId;
    /// Index of the parent record, or -1 for the root.
    int64_t Parent = -1;
    uint64_t Addr = 0;
    uint64_t PathTableAddr = 0;
    std::vector<uint64_t> Metrics;
    std::vector<std::pair<uint64_t, cct::PathCell>> PathCells;
    std::vector<Slot> Slots;
  };

  std::vector<cct::ProcDesc> Procs;
  uint64_t NumMetrics = 0;
  uint64_t PathCellBytes = 0;
  uint64_t HashThreshold = 0;
  uint64_t HeapBytes = 0;
  uint64_t ListCells = 0;
  /// Allocation order, root first.
  std::vector<Record> Records;
};

/// The image of \p Tree, parsed from its own writeTree bytes: well-formed
/// by construction, so every read is only expected to succeed.
inline TreeImage imageOf(const cct::CallingContextTree &Tree) {
  ByteWriter W;
  cct::writeTree(W, Tree);
  ByteReader R(W.Bytes.data(), W.Bytes.size());
  auto U64 = [&R] {
    uint64_t Value = 0;
    EXPECT_TRUE(R.u64(Value));
    return Value;
  };
  TreeImage Image;
  Image.Procs.resize(U64());
  for (cct::ProcDesc &Proc : Image.Procs) {
    EXPECT_TRUE(R.str(Proc.Name));
    Proc.NumSites = static_cast<unsigned>(U64());
    EXPECT_TRUE(R.bytes(Proc.SiteIsIndirect));
    Proc.NumPaths = U64();
  }
  Image.NumMetrics = U64();
  Image.PathCellBytes = U64();
  Image.HashThreshold = U64();
  Image.HeapBytes = U64();
  Image.ListCells = U64();
  Image.Records.resize(U64());
  for (TreeImage::Record &Rec : Image.Records) {
    Rec.Proc = static_cast<cct::ProcId>(U64());
    Rec.Parent = static_cast<int64_t>(U64());
    Rec.Addr = U64();
    Rec.PathTableAddr = U64();
    Rec.Metrics.resize(U64());
    for (uint64_t &Metric : Rec.Metrics)
      Metric = U64();
    Rec.PathCells.resize(U64());
    for (auto &[Sum, Cell] : Rec.PathCells) {
      Sum = U64();
      Cell.Freq = U64();
      Cell.Metric0 = U64();
      Cell.Metric1 = U64();
    }
    Rec.Slots.resize(U64());
    for (TreeImage::Slot &Slot : Rec.Slots) {
      EXPECT_TRUE(R.u8(Slot.Kind));
      Slot.Targets.resize(U64());
      for (auto &[Target, CellAddr] : Slot.Targets) {
        Target = U64();
        CellAddr = U64();
      }
    }
  }
  EXPECT_TRUE(R.atEnd());
  return Image;
}

/// Writes \p Image in cct::writeTree's encoding.
inline void writeImage(ByteWriter &W, const TreeImage &Image) {
  W.u64(Image.Procs.size());
  for (const cct::ProcDesc &Proc : Image.Procs) {
    W.str(Proc.Name);
    W.u64(Proc.NumSites);
    W.bytes(Proc.SiteIsIndirect);
    W.u64(Proc.NumPaths);
  }
  W.u64(Image.NumMetrics);
  W.u64(Image.PathCellBytes);
  W.u64(Image.HashThreshold);
  W.u64(Image.HeapBytes);
  W.u64(Image.ListCells);
  W.u64(Image.Records.size());
  for (const TreeImage::Record &Rec : Image.Records) {
    W.u64(Rec.Proc);
    W.u64(static_cast<uint64_t>(Rec.Parent));
    W.u64(Rec.Addr);
    W.u64(Rec.PathTableAddr);
    W.u64(Rec.Metrics.size());
    for (uint64_t Metric : Rec.Metrics)
      W.u64(Metric);
    W.u64(Rec.PathCells.size());
    for (const auto &[Sum, Cell] : Rec.PathCells) {
      W.u64(Sum);
      W.u64(Cell.Freq);
      W.u64(Cell.Metric0);
      W.u64(Cell.Metric1);
    }
    W.u64(Rec.Slots.size());
    for (const TreeImage::Slot &Slot : Rec.Slots) {
      W.u8(Slot.Kind);
      W.u64(Slot.Targets.size());
      for (const auto &[Target, CellAddr] : Slot.Targets) {
        W.u64(Target);
        W.u64(CellAddr);
      }
    }
  }
}

/// The bytes of \p A (which must have a tree and no run section) with its
/// tree replaced by the image after \p Edit, cut \p Cut bytes short of
/// the tree's end (0 keeps it whole), under a valid CRC trailer: what a
/// writer that encodes an impossible image would leave on disk.
inline std::vector<uint8_t>
encodeWithEditedImage(const profdb::Artifact &A,
                      const std::function<void(TreeImage &)> &Edit,
                      size_t Cut = 0) {
  std::vector<uint8_t> Bytes = profdb::encodeArtifact(A);
  TreeImage Image = imageOf(*A.Tree);
  ByteWriter Original, Edited;
  writeImage(Original, Image);
  Edit(Image);
  writeImage(Edited, Image);
  // Such an artifact ends with its tree, the has-run byte and the trailer.
  size_t TreeStart = Bytes.size() - 4 - 1 - Original.Bytes.size();
  EXPECT_TRUE(std::equal(Original.Bytes.begin(), Original.Bytes.end(),
                         Bytes.begin() + TreeStart));
  std::vector<uint8_t> Out(Bytes.begin(), Bytes.begin() + TreeStart);
  Out.insert(Out.end(), Edited.Bytes.begin(), Edited.Bytes.end() - Cut);
  if (Cut == 0)
    Out.push_back(0); // no run section
  uint32_t Crc = crc32(Out.data(), Out.size());
  for (unsigned Index = 0; Index != 4; ++Index)
    Out.push_back(static_cast<uint8_t>(Crc >> (8 * Index)));
  return Out;
}

/// \p A with its tree edited by \p Edit: the edited image written under a
/// valid CRC, then decoded. The edit must leave bytes the decoder accepts.
inline profdb::Artifact
withEditedTree(const profdb::Artifact &A,
               const std::function<void(TreeImage &)> &Edit) {
  profdb::Artifact Out;
  EXPECT_EQ(profdb::decodeArtifact(encodeWithEditedImage(A, Edit), Out),
            profdb::DecodeStatus::Ok);
  return Out;
}

/// A record reached through a direct slot of its parent.
struct DirectChild {
  size_t Parent = 0, Slot = 0, Child = 0;
};

/// Whether record \p Index resolves none of its slots.
inline bool isLeaf(const TreeImage &Image, size_t Index) {
  for (const TreeImage::Slot &Slot : Image.Records[Index].Slots)
    if (!Slot.Targets.empty())
      return false;
  return true;
}

/// The first direct child in \p Image whose parent is record \p MinParent
/// or later; with \p LeafOnly, the first that resolves none of its slots.
inline bool findDirectChild(const TreeImage &Image, DirectChild &Out,
                            bool LeafOnly = false, size_t MinParent = 0) {
  for (size_t P = MinParent; P != Image.Records.size(); ++P)
    for (size_t S = 0; S != Image.Records[P].Slots.size(); ++S) {
      const TreeImage::Slot &Slot = Image.Records[P].Slots[S];
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
inline void moveChildToExtraSlot(TreeImage &Image) {
  DirectChild E;
  ASSERT_TRUE(findDirectChild(Image, E));
  std::vector<TreeImage::Slot> &Slots = Image.Records[E.Parent].Slots;
  Slots.push_back(Slots[E.Slot]);
  Slots[E.Slot] = {};
}

/// Drops every strict descendant of record \p Root, renumbering the rest.
/// Nothing outside the subtree can target it: slots reach children and
/// ancestors only.
inline void pruneSubtree(TreeImage &Image, size_t Root) {
  size_t N = Image.Records.size();
  std::vector<uint8_t> Dropped(N, 0);
  std::vector<uint64_t> NewIndex(N, 0);
  std::vector<TreeImage::Record> Kept;
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
  for (TreeImage::Record &Rec : Kept) {
    if (Rec.Parent >= 0)
      Rec.Parent = static_cast<int64_t>(NewIndex[Rec.Parent]);
    for (TreeImage::Slot &Slot : Rec.Slots)
      for (auto &Target : Slot.Targets)
        Target.first = NewIndex[Target.first];
  }
  Image.Records = std::move(Kept);
}

/// Turns a child in a direct slot into a leaf of another procedure, one
/// not on its root path. On its own the tree is sound; against the
/// original it resolves one direct slot to two callees.
inline void swapLeafCallee(TreeImage &Image) {
  DirectChild E;
  ASSERT_TRUE(findDirectChild(Image, E, /*LeafOnly=*/false, /*MinParent=*/1) ||
              findDirectChild(Image, E));
  // Descendants follow their ancestors, so the child keeps its index.
  pruneSubtree(Image, E.Child);
  size_t Child = E.Child;
  TreeImage::Record &Leaf = Image.Records[Child];
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
