#ifndef BENU_STORAGE_VERSIONED_STORE_H_
#define BENU_STORAGE_VERSIONED_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "storage/kv_store.h"
#include "storage/transport.h"

namespace benu {

namespace metrics {
class Counter;
class Gauge;
}  // namespace metrics

/// The net effect of one epoch's edge-mutation batch, canonicalized
/// against the snapshot it applies to: inserts of already-present edges
/// and deletes of absent edges are dropped, and an insert+delete pair of
/// the same edge inside one batch cancels. What remains is exactly the
/// Δ⁺ / Δ⁻ the S-BENU incremental plans enumerate from
/// (plan/incremental.h), and `touched` is exactly the invalidation set
/// DbCache::AdvanceEpoch needs.
struct EpochDelta {
  /// The epoch this delta produces when applied (previous epoch + 1).
  uint64_t epoch = 0;
  /// Net-inserted edges, normalized u < v, sorted. Δ⁺.
  std::vector<EdgeDelta> inserted;
  /// Net-removed edges, normalized u < v, sorted. Δ⁻.
  std::vector<EdgeDelta> removed;
  /// Sorted distinct endpoints of inserted ∪ removed — the vertices
  /// whose adjacency value changes at this epoch.
  std::vector<VertexId> touched;
  /// Raw ops the batch contained before canonicalization.
  size_t raw_ops = 0;

  bool empty() const { return inserted.empty() && removed.empty(); }
};

/// A DistributedKvStore that serves *snapshot* adjacency at an epoch:
/// immutable base payloads fetched through any Transport backend
/// (sim/loopback/TCP — servers always store the epoch-0 base graph)
/// composed with an in-memory overlay of the edges inserted/deleted
/// since. Reads of untouched vertices pass the base payload through
/// unchanged — still delta+varint encoded on compressed backends, so the
/// executor's fused kernels keep working on the unchanged 99%+ of the
/// graph; only touched vertices pay a materialize-and-patch.
///
/// Epoch protocol: Canonicalize(ops) → enumerate retractions against the
/// current snapshot → Apply(delta) → enumerate additions against the new
/// snapshot (MaintainEpoch in distributed/dynamic_runner.h drives this
/// for both DynamicRunner and the service). Apply also replicates the
/// delta to the KV servers (kApplyDelta / kEpochAdvance) so their
/// attested (graph_hash, epoch) identity tracks the client's.
///
/// Thread-safe: reads take a shared lock; Apply takes an exclusive lock.
/// Prefetch-pool threads may race Apply, which is why DbCache tags
/// flights with the epoch (storage/db_cache.h).
class VersionedAdjacencyStore : public DistributedKvStore {
 public:
  explicit VersionedAdjacencyStore(std::shared_ptr<Transport> transport);

  /// Current epoch (0 = pristine base graph).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Net-canonicalizes `ops` (applied in order) against the current
  /// snapshot. Pure — the snapshot is unchanged; self-loops are dropped.
  /// The result is only valid for Apply while the store stays at this
  /// epoch.
  EpochDelta Canonicalize(std::span<const EdgeDelta> ops) const;

  /// Applies a canonicalized delta, advances the epoch, and replicates
  /// the delta to the transport's delta-capable servers. CHECK-fails if
  /// `delta.epoch` is not exactly epoch()+1 (stale canonicalization).
  /// Returns the new epoch.
  uint64_t Apply(const EpochDelta& delta);

  /// Snapshot membership of the undirected edge {u, v}.
  bool EdgeExists(VertexId u, VertexId v) const;

  /// Vertices currently carrying an overlay (diagnostic).
  size_t overlay_vertices() const;

  /// Snapshot reads: base payload composed with the overlay for touched
  /// vertices, pass-through otherwise.
  AdjacencyPayload GetAdjacency(VertexId v) const override;
  BatchReply GetAdjacencyBatch(std::span<const VertexId> keys) const override;

 private:
  /// Per-vertex overlay relative to the base payload; both sorted.
  /// Invariant: added ∩ base = ∅, removed ⊆ base, added ∩ removed = ∅;
  /// entries with both vectors empty are erased from the map.
  struct Overlay {
    std::vector<VertexId> added;
    std::vector<VertexId> removed;
  };

  /// Merged decoded payload: (base ∖ removed) ∪ added. Charges the base
  /// payload's wire accounting (the patch itself is local memory).
  AdjacencyPayload PatchPayload(const Overlay& overlay,
                                const AdjacencyPayload& base) const;

  /// Presence check under a held shared lock; `base_cache` memoizes
  /// materialized base sets across one canonicalization pass.
  bool EdgeExistsLocked(
      VertexId u, VertexId v,
      std::unordered_map<VertexId, std::shared_ptr<const VertexSet>>*
          base_cache) const;

  /// Mutators under the exclusive lock; keep the overlay symmetric.
  void InsertHalfEdgeLocked(VertexId u, VertexId v);
  void RemoveHalfEdgeLocked(VertexId u, VertexId v);

  std::shared_ptr<Transport> transport_;
  mutable std::shared_mutex mu_;
  std::unordered_map<VertexId, Overlay> overlay_;
  std::atomic<uint64_t> epoch_{0};

  metrics::Counter* advances_metric_ = nullptr;
  metrics::Counter* ops_staged_metric_ = nullptr;
  metrics::Counter* ops_noop_metric_ = nullptr;
  metrics::Counter* edges_inserted_metric_ = nullptr;
  metrics::Counter* edges_removed_metric_ = nullptr;
  metrics::Counter* patched_reads_metric_ = nullptr;
  metrics::Gauge* epoch_gauge_ = nullptr;
  metrics::Gauge* overlay_gauge_ = nullptr;
};

}  // namespace benu

#endif  // BENU_STORAGE_VERSIONED_STORE_H_
