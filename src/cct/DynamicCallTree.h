//===- cct/DynamicCallTree.h - DCT and DCG references ----------*- C++ -*-===//
///
/// \file
/// The two ends of the spectrum the CCT sits between (§4.1, Figures 4-5):
/// the dynamic call tree (one vertex per activation, unbounded) and the
/// dynamic call graph (one vertex per procedure, maximally aggregated).
/// Tests and the figure benches build all three from the same trace and
/// compare their shapes; the DCT also serves as the oracle for CCT
/// correctness (every DCT path must map to a unique CCT vertex, recursion
/// aside).
///
//===----------------------------------------------------------------------===//

#ifndef PP_CCT_DYNAMICCALLTREE_H
#define PP_CCT_DYNAMICCALLTREE_H

#include "cct/CallingContextTree.h"

#include <cassert>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace pp {
namespace cct {

/// The full dynamic call tree: every activation is a vertex, so the size is
/// proportional to the number of calls.
class DynamicCallTree {
public:
  struct Node {
    ProcId Proc;
    int Parent; // -1 for the root
    std::vector<int> Children;
  };

  DynamicCallTree() {
    Nodes.push_back(Node{RootProcId, -1, {}});
    Stack.push_back(0);
  }

  /// Records entry into \p Proc as a child of the current activation.
  void enter(ProcId Proc) {
    int Index = static_cast<int>(Nodes.size());
    Nodes.push_back(Node{Proc, Stack.back(), {}});
    Nodes[Stack.back()].Children.push_back(Index);
    Stack.push_back(Index);
  }

  /// Records return from the current activation.
  void exit() {
    assert(Stack.size() > 1 && "exit without matching enter");
    Stack.pop_back();
  }

  size_t numActivations() const { return Nodes.size() - 1; }
  const std::vector<Node> &nodes() const { return Nodes; }
  const Node &node(int Index) const { return Nodes[Index]; }

  /// Number of *distinct* call chains, which is exactly the vertex count a
  /// recursion-free CCT must have.
  size_t numDistinctContexts() const;

private:
  std::vector<Node> Nodes;
  std::vector<int> Stack;
};

/// The dynamic call graph: one vertex per procedure, an edge X -> Y iff X
/// called Y at least once.
class DynamicCallGraph {
public:
  void addCall(ProcId Caller, ProcId Callee) {
    Procs.insert(Caller);
    Procs.insert(Callee);
    Edges.insert({Caller, Callee});
  }

  size_t numProcs() const { return Procs.size(); }
  size_t numEdges() const { return Edges.size(); }
  bool hasEdge(ProcId Caller, ProcId Callee) const {
    return Edges.count({Caller, Callee}) != 0;
  }

  const std::set<std::pair<ProcId, ProcId>> &edges() const { return Edges; }

private:
  std::set<ProcId> Procs;
  std::set<std::pair<ProcId, ProcId>> Edges;
};

} // namespace cct
} // namespace pp

#endif // PP_CCT_DYNAMICCALLTREE_H
