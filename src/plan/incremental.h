#ifndef BENU_PLAN_INCREMENTAL_H_
#define BENU_PLAN_INCREMENTAL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/match_consumer.h"
#include "graph/graph.h"
#include "plan/instruction.h"

namespace benu {

/// S-BENU incremental plan generation (arXiv:2006.12819, adapted to this
/// codebase's backtracking executor).
///
/// Decomposition: fix the canonical order e_0 < e_1 < ... < e_{m-1} of the
/// pattern's edges (lexicographic on (min, max) endpoint ids). For a delta
/// edge set Δ, a match of P exists in G ⊕ Δ involving at least one Δ edge
/// iff the set S = { i : pattern edge e_i maps to a Δ edge } is non-empty;
/// the match is charged to plan min(S), so each delta match is found
/// exactly once:
///   - plan i *anchors* pattern edge e_i = (a_i, b_i) to a delta edge —
///     the matching order starts [a_i, b_i] and the executor pins
///     (f(a_i), f(b_i)) to the delta edge via SearchTask::seed_second;
///   - a report-time filter (DeltaMatchFilter) rejects any match of plan i
///     whose earlier pattern edge e_j (j < i) also maps into Δ — that
///     match belongs to plan j.
/// Both orientations of a delta edge {u, v} are tried as (start, seed)
/// = (u, v) and (v, u); at most one survives per match since f is a
/// function. Symmetry breaking is the full pattern's partial order,
/// unchanged — the delta decomposition is orthogonal to duplicate
/// elimination over automorphisms.
///
/// Deletions use the *same* plans: enumerate against the pre-apply
/// snapshot seeded from Δ⁻ to retract, apply, then enumerate against the
/// new snapshot seeded from Δ⁺ to add (MaintainEpoch,
/// distributed/dynamic_runner.h).
/// Net canonicalization (VersionedAdjacencyStore::Canonicalize)
/// guarantees Δ⁺ is disjoint from the old snapshot and Δ⁻ is contained
/// in it, so the retract and add passes partition the changed matches.

/// One incremental plan: anchors canonical pattern edge `edge_index` to a
/// delta data edge and enumerates the remainder against a snapshot.
struct IncrementalPlan {
  /// Index of the anchored edge in IncrementalPlanSet::edges.
  size_t edge_index = 0;
  /// The anchored pattern edge (anchor_u < anchor_v). The plan's matching
  /// order begins [anchor_u, anchor_v]: run it with SearchTask{.start = u,
  /// .seed_second = v} to pin f(anchor_u) = u, f(anchor_v) = v.
  VertexId anchor_u = 0;
  VertexId anchor_v = 0;
  /// Uncompressed plan (never VCBC: DeltaMatchFilter needs the full
  /// f-vector at report time), full symmetry-breaking constraints.
  ExecutionPlan plan;
};

/// The per-edge incremental plans of one pattern, in canonical edge order.
struct IncrementalPlanSet {
  Graph pattern;
  /// Canonical pattern edges, lexicographic, each (min, max).
  std::vector<std::pair<VertexId, VertexId>> edges;
  /// plans[i] anchors edges[i].
  std::vector<IncrementalPlan> plans;
};

/// Generates the incremental plan set for a connected pattern.
/// Deterministic in the pattern (canonical edge order, greedy
/// connectivity-first matching orders with fixed tie-breaks).
StatusOr<IncrementalPlanSet> GenerateIncrementalPlans(const Graph& pattern);

/// The delta edge set of one maintenance pass (Δ⁻ for the retraction
/// pass, Δ⁺ for the addition pass), with O(1) undirected membership.
class EdgePatch {
 public:
  EdgePatch() = default;
  /// `ops` need not be normalized; {u, v} and {v, u} key identically.
  explicit EdgePatch(std::span<const EdgeDelta> ops);

  bool Contains(VertexId u, VertexId v) const {
    return keys_.count(Key(u, v)) != 0;
  }
  size_t size() const { return keys_.size(); }

 private:
  static uint64_t Key(VertexId u, VertexId v) {
    const uint64_t lo = u < v ? u : v;
    const uint64_t hi = u < v ? v : u;
    return (lo << 32) | hi;
  }
  std::unordered_set<uint64_t> keys_;
};

/// Report-time min-index uniqueness filter: accepts a match of plan
/// `plan_index` (forwarding it to `inner`, when not null) unless some
/// earlier canonical pattern edge e_j (j < plan_index) maps into the
/// patch — that match is plan j's.
/// The check is O(plan_index) hash probes per reported match, against
/// the tiny per-epoch patch, not the graph.
class DeltaMatchFilter : public MatchConsumer {
 public:
  /// All pointers/references must outlive the filter; `inner` may be
  /// null (count only).
  DeltaMatchFilter(const IncrementalPlanSet* set, size_t plan_index,
                   const EdgePatch* patch, MatchConsumer* inner);

  void OnMatch(const std::vector<VertexId>& f) override;
  /// Incremental plans are never compressed; CHECK-fails.
  void OnCompressedCode(
      const std::vector<VertexId>& f,
      const std::vector<VertexSetView>& image_sets) override;

  Count accepted() const { return accepted_; }
  Count rejected() const { return rejected_; }

 private:
  const IncrementalPlanSet* set_;
  size_t plan_index_;
  const EdgePatch* patch_;
  MatchConsumer* inner_;
  Count accepted_ = 0;
  Count rejected_ = 0;
};

/// Deterministic connectivity-first greedy matching order: start at the
/// max-degree vertex (ties: smallest id), repeatedly append the
/// unplaced vertex with the most already-placed neighbors (ties: larger
/// degree, then smaller id). Used for DynamicRunner's full-recompute
/// baseline; `prefix` (optional) pins the first vertices — the
/// incremental generator passes the anchored edge.
std::vector<VertexId> GreedyMatchingOrder(const Graph& pattern,
                                          std::vector<VertexId> prefix = {});

}  // namespace benu

#endif  // BENU_PLAN_INCREMENTAL_H_
