#include "plan/incremental.h"

#include <algorithm>

#include "common/logging.h"
#include "plan/plan_generator.h"
#include "plan/symmetry_breaking.h"

namespace benu {

std::vector<VertexId> GreedyMatchingOrder(const Graph& pattern,
                                          std::vector<VertexId> prefix) {
  const size_t n = pattern.NumVertices();
  std::vector<VertexId> order = std::move(prefix);
  std::vector<char> placed(n, 0);
  for (VertexId v : order) placed[v] = 1;
  if (order.empty()) {
    VertexId best = 0;
    for (VertexId v = 1; v < static_cast<VertexId>(n); ++v) {
      if (pattern.Degree(v) > pattern.Degree(best)) best = v;
    }
    order.push_back(best);
    placed[best] = 1;
  }
  while (order.size() < n) {
    VertexId best = kInvalidVertex;
    size_t best_conn = 0;
    for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
      if (placed[v]) continue;
      size_t conn = 0;
      for (VertexId w : pattern.Adjacency(v)) {
        if (placed[w]) ++conn;
      }
      const bool better =
          best == kInvalidVertex || conn > best_conn ||
          (conn == best_conn &&
           (pattern.Degree(v) > pattern.Degree(best) ||
            (pattern.Degree(v) == pattern.Degree(best) && v < best)));
      if (better) {
        best = v;
        best_conn = conn;
      }
    }
    order.push_back(best);
    placed[best] = 1;
  }
  return order;
}

StatusOr<IncrementalPlanSet> GenerateIncrementalPlans(const Graph& pattern) {
  if (pattern.NumVertices() < 2 || !pattern.IsConnected()) {
    return Status::InvalidArgument(
        "incremental plans require a connected pattern with >= 2 vertices");
  }
  IncrementalPlanSet set;
  set.pattern = pattern;
  set.edges = pattern.Edges();  // each (first < second), CSR order
  std::sort(set.edges.begin(), set.edges.end());
  const std::vector<OrderConstraint> constraints =
      ComputeSymmetryBreakingConstraints(pattern);
  set.plans.reserve(set.edges.size());
  for (size_t i = 0; i < set.edges.size(); ++i) {
    IncrementalPlan inc;
    inc.edge_index = i;
    inc.anchor_u = set.edges[i].first;
    inc.anchor_v = set.edges[i].second;
    const std::vector<VertexId> order =
        GreedyMatchingOrder(pattern, {inc.anchor_u, inc.anchor_v});
    auto plan = GenerateRawPlan(pattern, order, constraints);
    BENU_RETURN_IF_ERROR(plan.status());
    inc.plan = *std::move(plan);
    set.plans.push_back(std::move(inc));
  }
  return set;
}

EdgePatch::EdgePatch(std::span<const EdgeDelta> ops) {
  keys_.reserve(ops.size());
  for (const EdgeDelta& op : ops) keys_.insert(Key(op.u, op.v));
}

DeltaMatchFilter::DeltaMatchFilter(const IncrementalPlanSet* set,
                                   size_t plan_index, const EdgePatch* patch,
                                   MatchConsumer* inner)
    : set_(set), plan_index_(plan_index), patch_(patch), inner_(inner) {
  BENU_CHECK(plan_index_ < set_->plans.size());
}

void DeltaMatchFilter::OnMatch(const std::vector<VertexId>& f) {
  for (size_t j = 0; j < plan_index_; ++j) {
    const auto& [a, b] = set_->edges[j];
    if (patch_->Contains(f[a], f[b])) {
      ++rejected_;
      return;
    }
  }
  ++accepted_;
  if (inner_ != nullptr) inner_->OnMatch(f);
}

void DeltaMatchFilter::OnCompressedCode(
    const std::vector<VertexId>& /*f*/,
    const std::vector<VertexSetView>& /*image_sets*/) {
  BENU_CHECK(false);  // incremental plans are generated uncompressed
}

}  // namespace benu
