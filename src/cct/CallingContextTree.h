//===- cct/CallingContextTree.h - The calling context tree ------*- C++ -*-===//
///
/// \file
/// The calling context tree of §4: a run-time structure between the dynamic
/// call tree (unbounded, one vertex per activation) and the dynamic call
/// graph (bounded, but merges all contexts). A CCT vertex — a *call record*
/// (Figure 6) — represents one equivalence class of activations: same
/// procedure, equivalent caller context, with recursion collapsed onto the
/// ancestor record (introducing backedges and bounding the depth by the
/// number of procedures).
///
/// The construction mirrors the paper's instrumentation protocol: the
/// caller passes a (record, callee-slot) pair — the gCSP — down to the
/// callee, whose entry code resolves the slot: directly (already a record
/// pointer), through the indirect-call list (with move-to-front), or by
/// walking parent pointers to detect recursion before allocating a fresh
/// record.
///
/// Records carry simulated addresses in the CCT heap region; an optional
/// MemCharger observes every field access the algorithm performs, letting
/// the profiling runtime charge the simulated machine exactly the memory
/// traffic the inline instrumentation would generate.
///
//===----------------------------------------------------------------------===//

#ifndef PP_CCT_CALLINGCONTEXTTREE_H
#define PP_CCT_CALLINGCONTEXTTREE_H

#include "support/AddressLayout.h"
#include "support/BinaryIO.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace pp {
namespace cct {

/// Procedure identifier (the function id; the paper uses the procedure's
/// start address).
using ProcId = uint32_t;

/// The pseudo-procedure of the root record ("T", §4.2).
inline constexpr ProcId RootProcId = ~ProcId(0);

/// The root's callee slot for signal handlers (slot 0 enters main). This
/// realises the paper's note that handling signals requires the CCT to
/// have multiple roots: every handler activation hangs off the root, not
/// off whatever procedure the signal interrupted.
inline constexpr unsigned SignalSlot = 1;

/// Static description of one procedure, supplied by the instrumenter.
struct ProcDesc {
  std::string Name;
  /// Number of call sites (= callee slots per record).
  unsigned NumSites = 0;
  /// Per-site flag: true for indirect call sites (their slots hold lists).
  std::vector<uint8_t> SiteIsIndirect;
  /// Potential Ball-Larus paths, for sizing the per-record path table in
  /// combined flow+context profiling; 0 when no path profile is kept.
  uint64_t NumPaths = 0;
};

/// Observer of the memory traffic and instruction footprint of CCT
/// operations (implemented by the profiling runtime; null = free).
class MemCharger {
public:
  virtual ~MemCharger();
  virtual void touchMemory(uint64_t Addr, unsigned Size, bool IsWrite) = 0;
  virtual void chargeInsts(unsigned N) = 0;
};

/// Per-path counters held inside a call record (flow + context profiling).
struct PathCell {
  uint64_t Freq = 0;
  uint64_t Metric0 = 0;
  uint64_t Metric1 = 0;
};

class CallingContextTree;

/// One CCT vertex (Figure 6's CallRecord).
class CallRecord {
public:
  /// A tagged callee slot (Figure 7): unresolved (offset tag), a direct
  /// pointer to one record, or a move-to-front list for indirect sites.
  struct Slot {
    enum class Kind : uint8_t { Unresolved, Record, List };
    Kind K = Kind::Unresolved;
    CallRecord *Direct = nullptr;
    /// (record, simulated list-cell address) pairs, front = most recent.
    std::vector<std::pair<CallRecord *, uint64_t>> List;
  };

  ProcId procId() const { return Proc; }
  CallRecord *parent() const { return Parent; }
  /// Simulated address of this record in the CCT heap.
  uint64_t addr() const { return Addr; }
  /// Tree depth (root = 0).
  unsigned depth() const { return Depth; }

  unsigned numSlots() const { return static_cast<unsigned>(Slots.size()); }
  const Slot &slot(unsigned Index) const { return Slots[Index]; }

  /// Metric accumulators (schema defined by the runtime; index 0 is
  /// conventionally the invocation count).
  std::vector<uint64_t> Metrics;

  /// Per-path counters when combined flow+context profiling is active,
  /// in tree-byte order (see CallingContextTree::sortPathTables).
  std::vector<std::pair<uint64_t, PathCell>> PathTable;

  /// Simulated base address of the path counter table (array mode), or of
  /// the per-record hash table (hash mode).
  uint64_t pathTableAddr() const { return PathTableAddr; }

private:
  friend class CallingContextTree;
  /// The artifact reader (cct/ImageIO.h) fills records in place.
  friend DecodeStatus readTree(ByteReader &,
                               std::unique_ptr<CallingContextTree> &);

  ProcId Proc = RootProcId;
  CallRecord *Parent = nullptr;
  uint64_t Addr = 0;
  uint64_t PathTableAddr = 0;
  unsigned Depth = 0;
  std::vector<Slot> Slots;
  /// While commitPath appends: each path sum's position in PathTable.
  std::unique_ptr<std::unordered_map<uint64_t, size_t>> LiveIndex;
};

/// What one record counted: its calls (Metrics[0]) and its PIC0/PIC1
/// events — Metrics[1]/[2] for Context+HW plus the sums over the record's
/// path cells for the combined flow modes. A missing metric reads 0.
struct RecordCounts {
  uint64_t Calls = 0;
  uint64_t Pic0 = 0;
  uint64_t Pic1 = 0;
};
RecordCounts recordCounts(const CallRecord &R);

/// \p R's calling context from the root down, the root's pseudo-procedure
/// excluded: each procedure named by \p Name, joined by \p Sep.
std::string contextName(const CallRecord &R,
                        const std::function<std::string(ProcId)> &Name,
                        const char *Sep);

/// Aggregate statistics (the raw material of the paper's Table 3).
struct CctStats {
  uint64_t NumRecords = 0;
  /// Simulated bytes: records + list cells + path tables.
  uint64_t TotalBytes = 0;
  uint64_t RecordBytes = 0;
  double AvgNodeBytes = 0;
  /// Average children of interior (non-leaf) records, via tree edges.
  double AvgOutDegree = 0;
  double AvgLeafDepth = 0;
  uint64_t MaxDepth = 0;
  /// Records of the most-replicated procedure.
  uint64_t MaxReplication = 0;
  ProcId MaxReplicationProc = RootProcId;
  uint64_t TotalSlots = 0;
  uint64_t UsedSlots = 0;
  /// Slots resolved to an ancestor record (recursion backedges).
  uint64_t BackedgeSlots = 0;
};

/// The tree itself plus its simulated-heap allocator.
class CallingContextTree {
public:
  /// \p Procs is indexed by ProcId. \p NumMetrics counters are allocated
  /// per record. \p PathCellBytes is the per-path counter stride (8 for
  /// frequency only, 24 with two metric accumulators); \p HashThreshold
  /// bounds array-mode path tables.
  CallingContextTree(std::vector<ProcDesc> Procs, unsigned NumMetrics,
                     MemCharger *Charger = nullptr,
                     unsigned PathCellBytes = 24,
                     uint64_t HashThreshold = 1 << 16);

  CallRecord *root() { return Root; }
  const CallRecord *root() const { return Root; }

  const ProcDesc &procDesc(ProcId Proc) const { return Procs[Proc]; }
  size_t numProcs() const { return Procs.size(); }
  const std::vector<ProcDesc> &procs() const { return Procs; }

  /// The geometry the constructor was given.
  unsigned numMetrics() const { return NumMetrics; }
  unsigned pathCellBytes() const { return PathCellBytes; }
  uint64_t hashThreshold() const { return HashThreshold; }

  /// The procedure-entry operation of §4.2: resolves \p SlotIndex of
  /// \p Caller for callee \p Proc, reusing, backedging, or allocating a
  /// record. Charges the configured MemCharger for every touch.
  CallRecord *enter(CallRecord *Caller, unsigned SlotIndex, ProcId Proc);

  /// Adds to a record metric (free; the caller charges separately if the
  /// update is program-visible).
  static void bumpMetric(CallRecord *R, unsigned Metric, uint64_t Delta) {
    R->Metrics[Metric] += Delta;
  }

  /// Commits one path execution into \p R's path table, charging the
  /// simulated accesses (array indexing or hash probing). A new path sum
  /// is appended, so the table is out of order until sortPathTables().
  void commitPath(CallRecord *R, uint64_t PathSum, bool WithMetrics,
                  uint64_t Metric0, uint64_t Metric1);
  /// Sorts the tables commitPath appended to, once the run ends, so every
  /// tree a reader sees holds ascending cells.
  void sortPathTables();

  size_t numRecords() const { return Records.size(); }
  /// All records in allocation order (root first).
  const std::vector<std::unique_ptr<CallRecord>> &records() const {
    return Records;
  }

  /// Total simulated bytes allocated in the CCT heap.
  uint64_t heapBytes() const { return HeapNext - layout::CctHeapBase; }

  CctStats computeStats() const;

  /// Record layout constants (Figure 6: ID, parent, metrics[], children[]).
  /// The root record has two slots (program entry + signal handlers).
  uint64_t recordBytes(ProcId Proc) const {
    uint64_t NumSites = Proc == RootProcId ? 2 : Procs[Proc].NumSites;
    return 8 + 8 + 8 * uint64_t(NumMetrics) + 8 * NumSites;
  }
  static constexpr uint64_t ListCellBytes = 16;

private:
  /// The artifact codec (cct/ImageIO.h) writes and reads a tree in place.
  friend void writeTree(ByteWriter &, const CallingContextTree &);
  friend DecodeStatus readTree(ByteReader &,
                               std::unique_ptr<CallingContextTree> &);

  uint64_t heapAlloc(uint64_t Size);
  CallRecord *makeRecord(ProcId Proc, CallRecord *Parent);
  /// Ancestor search for recursion: \p From and its ancestors, nearest
  /// first. Charges the walk.
  CallRecord *findAncestor(CallRecord *From, ProcId Proc);
  void touch(uint64_t Addr, unsigned Size, bool IsWrite) {
    if (Charger)
      Charger->touchMemory(Addr, Size, IsWrite);
  }
  void charge(unsigned Insts) {
    if (Charger)
      Charger->chargeInsts(Insts);
  }

  std::vector<ProcDesc> Procs;
  unsigned NumMetrics;
  MemCharger *Charger;
  unsigned PathCellBytes;
  uint64_t HashThreshold;
  uint64_t HeapNext = layout::CctHeapBase;
  std::vector<std::unique_ptr<CallRecord>> Records;
  CallRecord *Root = nullptr;
  uint64_t ListCellCount = 0;
};

} // namespace cct
} // namespace pp

#endif // PP_CCT_CALLINGCONTEXTTREE_H
