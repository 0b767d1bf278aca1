#include "storage/versioned_store.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"

namespace benu {

namespace {

/// Sorted insert of `v` into `s` (no-op if present).
void SortedInsert(std::vector<VertexId>* s, VertexId v) {
  auto it = std::lower_bound(s->begin(), s->end(), v);
  if (it == s->end() || *it != v) s->insert(it, v);
}

/// Sorted erase of `v` from `s`; returns true iff it was present.
bool SortedErase(std::vector<VertexId>* s, VertexId v) {
  auto it = std::lower_bound(s->begin(), s->end(), v);
  if (it == s->end() || *it != v) return false;
  s->erase(it);
  return true;
}

bool SortedContains(const std::vector<VertexId>& s, VertexId v) {
  return std::binary_search(s.begin(), s.end(), v);
}

}  // namespace

VersionedAdjacencyStore::VersionedAdjacencyStore(
    std::shared_ptr<Transport> transport)
    : DistributedKvStore(transport), transport_(std::move(transport)) {
  auto& reg = metrics::MetricsRegistry::Global();
  advances_metric_ = reg.GetCounter("store.epoch.advances", "1",
                                    "epoch batches applied to the store");
  ops_staged_metric_ = reg.GetCounter(
      "store.epoch.ops_staged", "1", "raw edge ops before canonicalization");
  ops_noop_metric_ =
      reg.GetCounter("store.epoch.ops_noop", "1",
                     "ops dropped as net no-ops by canonicalization");
  edges_inserted_metric_ = reg.GetCounter("store.epoch.edges_inserted", "1",
                                          "net edges inserted across epochs");
  edges_removed_metric_ = reg.GetCounter("store.epoch.edges_removed", "1",
                                         "net edges removed across epochs");
  patched_reads_metric_ =
      reg.GetCounter("store.epoch.patched_reads", "1",
                     "adjacency reads served through the overlay");
  epoch_gauge_ =
      reg.GetGauge("store.epoch.current", "1", "current store epoch");
  overlay_gauge_ = reg.GetGauge("store.epoch.overlay_vertices", "1",
                                "vertices carrying a delta overlay");
}

bool VersionedAdjacencyStore::EdgeExistsLocked(
    VertexId u, VertexId v,
    std::unordered_map<VertexId, std::shared_ptr<const VertexSet>>* base_cache)
    const {
  auto it = overlay_.find(u);
  if (it != overlay_.end()) {
    if (SortedContains(it->second.removed, v)) return false;
    if (SortedContains(it->second.added, v)) return true;
  }
  auto cached = base_cache->find(u);
  if (cached == base_cache->end()) {
    cached =
        base_cache
            ->emplace(u, DistributedKvStore::GetAdjacency(u).decoded)
            .first;
  }
  const auto& base = cached->second;
  return base != nullptr && SortedContains(*base, v);
}

bool VersionedAdjacencyStore::EdgeExists(VertexId u, VertexId v) const {
  std::shared_lock lock(mu_);
  std::unordered_map<VertexId, std::shared_ptr<const VertexSet>> base_cache;
  return EdgeExistsLocked(u, v, &base_cache);
}

EpochDelta VersionedAdjacencyStore::Canonicalize(
    std::span<const EdgeDelta> ops) const {
  std::shared_lock lock(mu_);
  EpochDelta delta;
  delta.raw_ops = ops.size();
  delta.epoch = epoch_.load(std::memory_order_acquire) + 1;
  // Edge key -> (presence before the batch, presence after ops so far).
  // std::map so the net delta comes out sorted without a second pass.
  std::map<std::pair<VertexId, VertexId>, std::pair<bool, bool>> state;
  std::unordered_map<VertexId, std::shared_ptr<const VertexSet>> base_cache;
  for (const EdgeDelta& op : ops) {
    if (op.u == op.v) continue;  // self-loops are not representable
    const auto key = std::minmax(op.u, op.v);
    auto it = state.find(key);
    if (it == state.end()) {
      const bool present = EdgeExistsLocked(key.first, key.second, &base_cache);
      it = state.emplace(key, std::make_pair(present, present)).first;
    }
    it->second.second = op.insert;
  }
  for (const auto& [key, presence] : state) {
    if (presence.second == presence.first) continue;  // net no-op
    auto& side = presence.second ? delta.inserted : delta.removed;
    side.push_back({key.first, key.second, presence.second});
    delta.touched.push_back(key.first);
    delta.touched.push_back(key.second);
  }
  std::sort(delta.touched.begin(), delta.touched.end());
  delta.touched.erase(
      std::unique(delta.touched.begin(), delta.touched.end()),
      delta.touched.end());
  return delta;
}

void VersionedAdjacencyStore::InsertHalfEdgeLocked(VertexId u, VertexId v) {
  Overlay& o = overlay_[u];
  // Canonicalization guarantees {u,v} is absent: either it was removed
  // from the base earlier (undo that) or it never existed (add it).
  if (!SortedErase(&o.removed, v)) SortedInsert(&o.added, v);
  if (o.added.empty() && o.removed.empty()) overlay_.erase(u);
}

void VersionedAdjacencyStore::RemoveHalfEdgeLocked(VertexId u, VertexId v) {
  Overlay& o = overlay_[u];
  // Present edge: either an earlier overlay insert (undo it) or a base
  // edge (mask it).
  if (!SortedErase(&o.added, v)) SortedInsert(&o.removed, v);
  if (o.added.empty() && o.removed.empty()) overlay_.erase(u);
}

uint64_t VersionedAdjacencyStore::Apply(const EpochDelta& delta) {
  {
    std::unique_lock lock(mu_);
    BENU_CHECK(delta.epoch == epoch_.load(std::memory_order_acquire) + 1)
        << "stale EpochDelta: delta.epoch=" << delta.epoch
        << " store epoch=" << epoch_.load();
    for (const EdgeDelta& e : delta.removed) {
      RemoveHalfEdgeLocked(e.u, e.v);
      RemoveHalfEdgeLocked(e.v, e.u);
    }
    for (const EdgeDelta& e : delta.inserted) {
      InsertHalfEdgeLocked(e.u, e.v);
      InsertHalfEdgeLocked(e.v, e.u);
    }
    epoch_.store(delta.epoch, std::memory_order_release);
    overlay_gauge_->Set(static_cast<double>(overlay_.size()));
  }
  // Replicate outside the lock: servers only attest the epoch (base
  // payloads are immutable), so readers need not wait on the network.
  std::vector<EdgeDelta> wire_ops;
  wire_ops.reserve(delta.removed.size() + delta.inserted.size());
  wire_ops.insert(wire_ops.end(), delta.removed.begin(), delta.removed.end());
  wire_ops.insert(wire_ops.end(), delta.inserted.begin(),
                  delta.inserted.end());
  auto push = transport_->PushDelta(delta.epoch, wire_ops);
  BENU_CHECK(push.ok()) << "delta push failed: " << push.status().ToString();
  auto advance = transport_->AdvanceEpoch(delta.epoch);
  BENU_CHECK(advance.ok())
      << "epoch advance failed: " << advance.status().ToString();
  advances_metric_->Add(1);
  ops_staged_metric_->Add(delta.raw_ops);
  ops_noop_metric_->Add(delta.raw_ops - delta.inserted.size() -
                        delta.removed.size());
  edges_inserted_metric_->Add(delta.inserted.size());
  edges_removed_metric_->Add(delta.removed.size());
  epoch_gauge_->Set(static_cast<double>(delta.epoch));
  return delta.epoch;
}

size_t VersionedAdjacencyStore::overlay_vertices() const {
  std::shared_lock lock(mu_);
  return overlay_.size();
}

AdjacencyPayload VersionedAdjacencyStore::PatchPayload(
    const Overlay& overlay, const AdjacencyPayload& base) const {
  const VertexSet* base_set = base.decoded.get();
  auto merged = std::make_shared<VertexSet>();
  merged->reserve(base.size() + overlay.added.size());
  if (base_set != nullptr) {
    std::set_difference(base_set->begin(), base_set->end(),
                        overlay.removed.begin(), overlay.removed.end(),
                        std::back_inserter(*merged));
  }
  if (!overlay.added.empty()) {
    VertexSet with_added;
    with_added.reserve(merged->size() + overlay.added.size());
    std::set_union(merged->begin(), merged->end(), overlay.added.begin(),
                   overlay.added.end(), std::back_inserter(with_added));
    *merged = std::move(with_added);
  }
  AdjacencyPayload patched;
  patched.decoded = std::move(merged);
  patched.wire_bytes = base.wire_bytes;
  patched_reads_metric_->Add(1);
  return patched;
}

AdjacencyPayload VersionedAdjacencyStore::GetAdjacency(VertexId v) const {
  std::shared_lock lock(mu_);
  auto it = overlay_.find(v);
  if (it == overlay_.end()) return DistributedKvStore::GetAdjacency(v);
  return PatchPayload(it->second, DistributedKvStore::GetAdjacency(v));
}

DistributedKvStore::BatchReply VersionedAdjacencyStore::GetAdjacencyBatch(
    std::span<const VertexId> keys) const {
  std::shared_lock lock(mu_);
  BatchReply reply = DistributedKvStore::GetAdjacencyBatch(keys);
  if (overlay_.empty()) return reply;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto it = overlay_.find(keys[i]);
    if (it == overlay_.end()) continue;
    reply.values[i] = PatchPayload(it->second, reply.values[i]);
  }
  return reply;
}

}  // namespace benu
