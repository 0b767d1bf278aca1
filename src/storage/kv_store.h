#ifndef BENU_STORAGE_KV_STORE_H_
#define BENU_STORAGE_KV_STORE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "graph/graph.h"
#include "graph/vertex_set.h"
#include "storage/transport.h"

namespace benu {

namespace metrics {
class Counter;
}  // namespace metrics

/// Communication statistics of the distributed database. Counters are
/// atomic because worker threads query concurrently; every field is also
/// mirrored into the process-wide MetricsRegistry as `kv_store.*` (see
/// docs/metrics.md), where multiple stores accumulate into one total.
///
/// `queries` counts key-level gets (the paper's #DBQ metric): a batched
/// multi-get of k keys bumps it by k. `round_trips` counts network round
/// trips: one per single-key get, one per *partition touched* per batched
/// multi-get — so batching reduces round trips while the query and byte
/// accounting stay identical.
struct KvStoreStats {
  /// Key-level gets; unit: lookups. A k-key multi-get adds k.
  std::atomic<Count> queries{0};
  /// Payload bytes of all replies (ReplyBytes per key; batching does not
  /// change byte accounting).
  std::atomic<Count> bytes_fetched{0};
  /// Network round trips: one per single-key get, one per partition
  /// touched per batched multi-get.
  std::atomic<Count> round_trips{0};
  std::atomic<Count> batch_gets{0};  ///< GetAdjacencyBatch calls

  void Reset() {
    queries.store(0);
    bytes_fetched.store(0);
    round_trips.store(0);
    batch_gets.store(0);
  }
};

/// Client side of the distributed key-value database of the BENU
/// architecture (Fig. 2; HBase in the paper). Stores the adjacency set of
/// every data vertex, hash-partitioned over `num_partitions` virtual
/// storage nodes. How a get actually reaches a partition is delegated to
/// a Transport (storage/transport.h): the in-process simulated backend
/// reproduces the seed simulator, the loopback backend exercises the wire
/// protocol, and the TCP backend talks to real KV-server processes.
/// Either way the client-side accounting — queries, round trips, payload
/// bytes — is identical, so the cluster's virtual-time model is
/// backend-independent.
///
/// Thread-safe: transports are thread-safe; stats are atomic.
class DistributedKvStore {
 public:
  /// Loads the data graph into an in-process simulated transport
  /// (Algorithm 2 line 1, the pattern-independent preprocessing step).
  /// This convenience path serves *raw* payloads, so its byte accounting
  /// is exactly ReplyBytes per key; compressed stores are built by
  /// wrapping an explicit MakeSimulatedTransport(graph, n, compress).
  DistributedKvStore(const Graph& graph, size_t num_partitions);

  /// Wraps an existing transport (loopback, TCP, or a custom backend).
  explicit DistributedKvStore(std::shared_ptr<Transport> transport);

  /// Virtual so VersionedAdjacencyStore (storage/versioned_store.h) can
  /// layer an epoch-addressed delta overlay over the same transports.
  virtual ~DistributedKvStore() = default;

  /// Fetches Γ(v), decoded (shared with the store in-process). Also
  /// returns, via the stats, the communication cost.
  virtual AdjacencyPayload GetAdjacency(VertexId v) const;

  /// Reply of one batched multi-get.
  struct BatchReply {
    /// Γ(keys[i]) in key order; payload values are shared and immutable.
    std::vector<AdjacencyPayload> values;
    /// Distinct partitions (virtual storage nodes) touched: the batch
    /// costs one round-trip latency per partition, not per key.
    size_t round_trips = 0;
    /// Total payload bytes of the replies (identical to fetching each
    /// key individually — batching amortizes latency, not bytes).
    size_t bytes = 0;
  };

  /// Fetches Γ(v) for every key in one multi-get. Keys are grouped by
  /// partition server-side, so the latency cost is one round trip per
  /// partition per batch while query/byte accounting matches
  /// `keys.size()` individual gets. This is what makes batched prefetching
  /// cheaper than issuing the same keys one by one.
  virtual BatchReply GetAdjacencyBatch(std::span<const VertexId> keys) const;

  /// Partition (virtual storage node) holding vertex v.
  size_t PartitionOf(VertexId v) const { return v % num_partitions_; }

  size_t num_partitions() const { return num_partitions_; }
  size_t num_vertices() const { return num_vertices_; }

  /// Payload bytes of one adjacency-set reply: entries × 4 plus the wire
  /// protocol's fixed frame header (common/wire.h) — the formula every
  /// backend, simulated or real, charges per reply.
  static size_t ReplyBytes(size_t set_size) {
    return set_size * sizeof(VertexId) + kReplyOverheadBytes;
  }

  const KvStoreStats& stats() const { return stats_; }
  KvStoreStats& mutable_stats() { return stats_; }

  /// The backend beneath this client.
  const Transport& transport() const { return *transport_; }

  static constexpr size_t kReplyOverheadBytes = 16;

 private:
  void InitMetrics();

  std::shared_ptr<Transport> transport_;
  size_t num_partitions_;
  size_t num_vertices_;
  mutable KvStoreStats stats_;
  // Registry mirrors of stats_, resolved once at construction (shared by
  // every store instance in the process).
  metrics::Counter* queries_metric_ = nullptr;
  metrics::Counter* round_trips_metric_ = nullptr;
  metrics::Counter* bytes_metric_ = nullptr;
  metrics::Counter* batch_gets_metric_ = nullptr;
};

}  // namespace benu

#endif  // BENU_STORAGE_KV_STORE_H_
