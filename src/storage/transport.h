#ifndef BENU_STORAGE_TRANSPORT_H_
#define BENU_STORAGE_TRANSPORT_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "graph/graph.h"
#include "graph/vertex_set.h"

namespace benu {

namespace wire {
struct Frame;
}  // namespace wire

namespace metrics {
class Counter;
}  // namespace metrics

/// Per-backend communication counters. Every Transport instance keeps its
/// own atomic totals and additionally mirrors them into the process-wide
/// metrics registry as `transport.<name>.{fetches,batch_gets,round_trips,
/// bytes,bytes_encoded}` (docs/metrics.md), so runs over different
/// backends can be compared counter by counter — the loopback/TCP wire
/// paths must agree with the simulated path exactly (metrics_test.cc
/// asserts it).
struct TransportStats {
  /// Single-key Fetch calls.
  std::atomic<Count> fetches{0};
  /// Batched FetchBatch calls.
  std::atomic<Count> batch_gets{0};
  /// Network round trips: one per single fetch, one per partition
  /// touched per batch.
  std::atomic<Count> round_trips{0};
  /// Reply payload bytes (wire frame bytes for loopback/TCP; the
  /// modeled equivalent — identical by construction — for the
  /// simulated backend). Compressed replies count their *encoded*
  /// frame size, which is what makes compression visible here.
  std::atomic<Count> bytes{0};
  /// The subset of `bytes` carried by delta+varint encoded replies.
  std::atomic<Count> bytes_encoded{0};

  void Reset() {
    fetches.store(0);
    batch_gets.store(0);
    round_trips.store(0);
    bytes.store(0);
    bytes_encoded.store(0);
  }
};

/// One fetched adjacency value: the sorted set, decoded once where it
/// entered the process (or shared zero-copy by the simulated backend).
struct AdjacencyPayload {
  std::shared_ptr<const VertexSet> decoded;
  /// Wire footprint of the reply frame that carried this value — what
  /// the transport accounted into `TransportStats::bytes` for it.
  size_t wire_bytes = 0;

  /// Number of adjacency entries.
  size_t size() const { return decoded != nullptr ? decoded->size() : 0; }
};

/// Decodes one adjacency reply frame into `payload` (with its wire_bytes),
/// raw or delta+varint encoded as the frame's own flag says: a server
/// answers raw when it does not encode. An encoded reply is validated
/// and decoded in one pass (codec::DecodeValidated) on the calling
/// thread; nothing above this call sees the encoded form. Returns the
/// frame's key via `*key`. Rejects, with InvalidArgument, a malformed
/// stream and a set that is not strictly ascending or that holds an id
/// >= `num_vertices`: the executor's kernels assume sorted sets, and
/// the DB cache indexes by id.
Status DecodeAdjacencyPayload(const wire::Frame& frame, size_t num_vertices,
                              VertexId* key, AdjacencyPayload* payload);

/// The communication layer beneath DistributedKvStore (DESIGN.md §2f):
/// how a worker's adjacency requests reach the partitioned store. The
/// enumeration engine above (DbCache → DistributedKvStore) is backend-
/// agnostic; the backends are:
///
///   - "sim"      in-process, zero-copy, modeled byte accounting — the
///                original cluster simulator expressed as a Transport;
///   - "loopback" in-process but through the full wire protocol
///                (common/wire.h): every fetch is framed, served by a
///                per-partition KvPartitionServer and decoded back;
///   - "tcp"      real sockets against separate KV-server processes
///                (tcp_transport.h / benu_kv_server).
///
/// All three charge identical round-trip and byte accounting for the
/// same request sequence, so the virtual-time model applies uniformly.
/// Implementations are thread-safe: worker threads fetch concurrently.
class Transport {
 public:
  /// Reply of one batched multi-get: values in request key order.
  struct BatchResult {
    std::vector<AdjacencyPayload> values;
    /// Distinct partitions touched — one round trip each.
    size_t round_trips = 0;
    /// Total reply payload bytes.
    size_t bytes = 0;
  };

  virtual ~Transport() = default;

  /// Backend name, used as the metrics label ("sim", "loopback", "tcp").
  virtual const char* name() const = 0;
  virtual size_t num_partitions() const = 0;
  /// Vertices of the stored graph (keys are 0..num_vertices-1).
  virtual size_t num_vertices() const = 0;

  /// Folded 32-bit Graph::ContentHash() of the graph this transport
  /// serves, so a client can verify it agrees with the servers on
  /// vertex ids (degree relabeling). Every backend attests one.
  virtual uint32_t graph_hash() const = 0;

  /// True iff replies travel delta+varint encoded on this transport's
  /// wire (modeled by the simulated backend). Payloads are decoded
  /// either way.
  virtual bool compressed() const { return false; }

  /// Fetches Γ(v). Payload values are immutable; for in-process
  /// backends they may be shared with the store.
  virtual StatusOr<AdjacencyPayload> Fetch(VertexId v) = 0;

  /// Fetches Γ(v) for every key in one multi-get: keys are grouped by
  /// partition and each touched partition costs one round trip.
  virtual StatusOr<BatchResult> FetchBatch(
      std::span<const VertexId> keys) = 0;

  /// Outcome of replicating one epoch delta to the backend's servers.
  struct DeltaPushResult {
    /// Servers that acknowledged the frame (kDeltaAck).
    size_t acked_servers = 0;
  };

  /// Replicates the net edge delta producing `epoch` to every server
  /// (wire kApplyDelta). Servers keep serving the
  /// *base* payloads unchanged; the frame only advances their attested
  /// epoch, which reconnect validation checks alongside graph_hash.
  /// Default: no servers to inform (in-process backends).
  virtual StatusOr<DeltaPushResult> PushDelta(uint64_t epoch,
                                              std::span<const EdgeDelta> ops) {
    (void)epoch;
    (void)ops;
    return DeltaPushResult{};
  }

  /// Marks `epoch` committed on every server (wire
  /// kEpochAdvance) after its kApplyDelta was acked. Default: no-op.
  virtual StatusOr<DeltaPushResult> AdvanceEpoch(uint64_t epoch) {
    (void)epoch;
    return DeltaPushResult{};
  }

  const TransportStats& stats() const { return stats_; }

 protected:
  /// Resolves the `transport.<name>.*` registry mirrors; implementations
  /// call this once from their constructor.
  void InitMetrics(const char* name);
  /// Accounts one fetch or batch into the stats and registry mirrors.
  /// `encoded_bytes` is the portion of `bytes` carried by encoded
  /// replies (0 on raw paths).
  void Account(size_t round_trips, size_t bytes, size_t encoded_bytes,
               bool batch);

  TransportStats stats_;

 private:
  metrics::Counter* fetches_metric_ = nullptr;
  metrics::Counter* batch_gets_metric_ = nullptr;
  metrics::Counter* round_trips_metric_ = nullptr;
  metrics::Counter* bytes_metric_ = nullptr;
  metrics::Counter* bytes_encoded_metric_ = nullptr;
};

/// The in-process simulated backend: adjacency sets are shared zero-copy
/// with the caller and communication is modeled, not performed — the
/// seed ClusterSimulator behavior, now just one Transport among several.
/// With `compress` (subject to codec::CompressionEnabled) the modeled
/// frame sizes are the encoded ones, sized once at construction; the
/// payloads stay raw.
std::shared_ptr<Transport> MakeSimulatedTransport(const Graph& graph,
                                                  size_t num_partitions,
                                                  bool compress = true);

/// The in-process wire-format backend: one KvPartitionServer per
/// partition, every fetch framed/served/decoded through common/wire.h.
/// Bit-for-bit equivalent to the simulated backend in counts and byte
/// accounting; used to validate the protocol without sockets. Copies the
/// graph, so the argument need not outlive the transport. `compress`
/// requests encoded replies (subject to codec::CompressionEnabled).
std::shared_ptr<Transport> MakeLoopbackTransport(const Graph& graph,
                                                 size_t num_partitions,
                                                 bool compress = true);

/// The data graph as an enumeration front end uses it: realized in the
/// vertex order ≺ (Algorithm 2 line 1) and checked against the store.
struct PreparedDataGraph {
  /// The labeling enumeration runs under (degree-relabeled or a copy).
  Graph graph;
  /// Original id → `graph` id; empty when not relabeled.
  std::vector<VertexId> old_to_new;
  /// Vertex labels permuted into `graph` ids (empty if none were given).
  std::vector<int> labels;
};

/// The preamble shared by RunBenu and QueryEngine::Create: checks that
/// `transport` (if any) stores as many vertices as `data_graph`,
/// relabels by degree when asked, checks that the transport's attested
/// graph hash matches the labeling enumeration will use (otherwise every
/// fetch would silently return the wrong adjacency set), and permutes
/// `labels` (one per data vertex, or empty) into the new ids. Mismatches
/// are InvalidArgument.
StatusOr<PreparedDataGraph> PrepareDataGraph(const Graph& data_graph,
                                             bool relabel_by_degree,
                                             const Transport* transport,
                                             std::vector<int> labels);

}  // namespace benu

#endif  // BENU_STORAGE_TRANSPORT_H_
