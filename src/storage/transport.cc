#include "storage/transport.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/wire.h"
#include "storage/kv_server.h"

namespace benu {

std::shared_ptr<const VertexSet> AdjacencyPayload::Materialize() const {
  if (decoded != nullptr) return decoded;
  if (encoded == nullptr) return nullptr;
  auto set = std::make_shared<VertexSet>();
  codec::DecodeAll(*encoded, set.get());
  codec::NoteDecoded(set->size());
  return set;
}

void Transport::InitMetrics(const char* name) {
  auto& registry = metrics::MetricsRegistry::Global();
  const std::string prefix = std::string("transport.") + name;
  fetches_metric_ = registry.GetCounter(prefix + ".fetches", "1",
                                        "single-key fetches");
  batch_gets_metric_ = registry.GetCounter(prefix + ".batch_gets", "1",
                                           "batched multi-get calls");
  round_trips_metric_ = registry.GetCounter(
      prefix + ".round_trips", "1",
      "round trips: 1 per single fetch, 1 per partition per batch");
  bytes_metric_ =
      registry.GetCounter(prefix + ".bytes", "bytes", "reply payload bytes");
  bytes_encoded_metric_ = registry.GetCounter(
      prefix + ".bytes_encoded", "bytes",
      "reply payload bytes carried delta+varint encoded");
}

void Transport::Account(size_t round_trips, size_t bytes,
                        size_t encoded_bytes, bool batch) {
  if (batch) {
    stats_.batch_gets.fetch_add(1, std::memory_order_relaxed);
    batch_gets_metric_->Add(1);
  } else {
    stats_.fetches.fetch_add(1, std::memory_order_relaxed);
    fetches_metric_->Add(1);
  }
  stats_.round_trips.fetch_add(round_trips, std::memory_order_relaxed);
  stats_.bytes.fetch_add(bytes, std::memory_order_relaxed);
  round_trips_metric_->Add(round_trips);
  bytes_metric_->Add(bytes);
  if (encoded_bytes != 0) {
    stats_.bytes_encoded.fetch_add(encoded_bytes, std::memory_order_relaxed);
    bytes_encoded_metric_->Add(encoded_bytes);
  }
}

namespace {

/// The seed simulator as a Transport: adjacency sets materialized once
/// and shared zero-copy; round trips and bytes are modeled with the wire
/// format's frame sizes (which the loopback/TCP backends realize). With
/// compression the store instead pre-encodes every set once and shares
/// the encoded payloads, modeling encoded frame sizes.
class SimulatedTransport final : public Transport {
 public:
  SimulatedTransport(const Graph& graph, size_t num_partitions,
                     bool compress)
      : num_partitions_(num_partitions == 0 ? 1 : num_partitions),
        num_vertices_(graph.NumVertices()),
        graph_hash_(graph.FoldedContentHash()),
        compress_(codec::CompressionEnabled(compress)) {
    if (compress_) {
      encoded_.reserve(num_vertices_);
      size_t raw_bytes = 0;
      size_t encoded_bytes = 0;
      for (VertexId v = 0; v < num_vertices_; ++v) {
        auto set = std::make_shared<codec::EncodedSet>();
        codec::Encode(graph.Adjacency(v), set.get());
        raw_bytes += set->raw_bytes();
        encoded_bytes += set->bytes.size();
        encoded_.push_back(std::move(set));
      }
      codec::NoteEncoded(num_vertices_, raw_bytes, encoded_bytes);
    } else {
      adjacency_.reserve(num_vertices_);
      for (VertexId v = 0; v < num_vertices_; ++v) {
        VertexSetView view = graph.Adjacency(v);
        adjacency_.push_back(
            std::make_shared<const VertexSet>(view.begin(), view.end()));
      }
    }
    InitMetrics(name());
  }

  const char* name() const override { return "sim"; }
  size_t num_partitions() const override { return num_partitions_; }
  size_t num_vertices() const override { return num_vertices_; }
  uint32_t graph_hash() const override { return graph_hash_; }
  bool compressed() const override { return compress_; }

  StatusOr<AdjacencyPayload> Fetch(VertexId v) override {
    if (v >= num_vertices_) {
      return Status::OutOfRange("vertex out of range: " + std::to_string(v));
    }
    const AdjacencyPayload payload = PayloadFor(v);
    Account(1, payload.wire_bytes,
            compress_ ? payload.wire_bytes : 0, /*batch=*/false);
    return payload;
  }

  StatusOr<BatchResult> FetchBatch(
      std::span<const VertexId> keys) override {
    BatchResult result;
    result.values.reserve(keys.size());
    std::vector<uint8_t> partition_touched(num_partitions_, 0);
    for (VertexId v : keys) {
      if (v >= num_vertices_) {
        return Status::OutOfRange("vertex out of range: " +
                                  std::to_string(v));
      }
      AdjacencyPayload payload = PayloadFor(v);
      result.bytes += payload.wire_bytes;
      uint8_t& touched = partition_touched[v % num_partitions_];
      if (!touched) {
        touched = 1;
        ++result.round_trips;
      }
      result.values.push_back(std::move(payload));
    }
    Account(result.round_trips, result.bytes,
            compress_ ? result.bytes : 0, /*batch=*/true);
    return result;
  }

 private:
  AdjacencyPayload PayloadFor(VertexId v) const {
    AdjacencyPayload payload;
    if (compress_) {
      payload.encoded = encoded_[v];
      payload.wire_bytes =
          wire::EncodedAdjacencyReplyBytes(encoded_[v]->bytes.size());
    } else {
      payload.decoded = adjacency_[v];
      payload.wire_bytes = wire::AdjacencyReplyBytes(adjacency_[v]->size());
    }
    return payload;
  }

  std::vector<std::shared_ptr<const VertexSet>> adjacency_;
  std::vector<std::shared_ptr<const codec::EncodedSet>> encoded_;
  size_t num_partitions_;
  size_t num_vertices_;
  uint32_t graph_hash_;
  bool compress_;
};

/// In-process wire-format backend: every fetch is encoded into a request
/// frame, handled by the owning partition's KvPartitionServer, and the
/// reply frame decoded back — the full protocol minus the socket.
class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(const Graph& graph, size_t num_partitions, bool compress)
      : graph_(graph),
        num_partitions_(num_partitions == 0 ? 1 : num_partitions),
        graph_hash_(graph_.FoldedContentHash()),
        compress_(codec::CompressionEnabled(compress)) {
    servers_.reserve(num_partitions_);
    for (size_t p = 0; p < num_partitions_; ++p) {
      servers_.push_back(std::make_unique<KvPartitionServer>(
          &graph_, num_partitions_, /*num_servers=*/num_partitions_,
          /*server_index=*/p, /*replica_index=*/0, /*num_replicas=*/1,
          /*support_encoding=*/compress_));
    }
    InitMetrics(name());
  }

  const char* name() const override { return "loopback"; }
  size_t num_partitions() const override { return num_partitions_; }
  size_t num_vertices() const override { return graph_.NumVertices(); }
  uint32_t graph_hash() const override { return graph_hash_; }
  bool compressed() const override { return compress_; }

  StatusOr<AdjacencyPayload> Fetch(VertexId v) override {
    if (v >= graph_.NumVertices()) {
      return Status::OutOfRange("vertex out of range: " + std::to_string(v));
    }
    std::vector<uint8_t> request;
    wire::AppendGetRequest(v, &request, /*want_encoded=*/compress_);
    std::vector<uint8_t> reply;
    servers_[v % num_partitions_]->HandleFrame(request, &reply);
    auto frame = wire::DecodeFrame(reply);
    BENU_RETURN_IF_ERROR(frame.status());
    AdjacencyPayload payload;
    BENU_RETURN_IF_ERROR(DecodeReply(*frame, v, &payload));
    Account(1, payload.wire_bytes,
            payload.is_encoded() ? payload.wire_bytes : 0, /*batch=*/false);
    return payload;
  }

  StatusOr<BatchResult> FetchBatch(
      std::span<const VertexId> keys) override {
    BatchResult result;
    result.values.resize(keys.size());
    // Group the batch by owning partition, preserving request order
    // within each group (slot = index into the result vector).
    std::vector<std::vector<VertexId>> partition_keys(num_partitions_);
    std::vector<std::vector<size_t>> partition_slots(num_partitions_);
    for (size_t i = 0; i < keys.size(); ++i) {
      const VertexId v = keys[i];
      if (v >= graph_.NumVertices()) {
        return Status::OutOfRange("vertex out of range: " +
                                  std::to_string(v));
      }
      partition_keys[v % num_partitions_].push_back(v);
      partition_slots[v % num_partitions_].push_back(i);
    }
    size_t encoded_bytes = 0;
    for (size_t p = 0; p < num_partitions_; ++p) {
      if (partition_keys[p].empty()) continue;
      std::vector<uint8_t> request;
      wire::AppendBatchGetRequest(partition_keys[p], &request,
                                  /*want_encoded=*/compress_);
      std::vector<uint8_t> reply;
      servers_[p]->HandleFrame(request, &reply);
      ++result.round_trips;
      // The reply is one kGetReply frame per key, in request order.
      std::span<const uint8_t> cursor(reply);
      size_t key_index = 0;
      for (size_t slot : partition_slots[p]) {
        auto frame = wire::DecodeFrame(cursor);
        BENU_RETURN_IF_ERROR(frame.status());
        AdjacencyPayload payload;
        BENU_RETURN_IF_ERROR(
            DecodeReply(*frame, partition_keys[p][key_index++], &payload));
        result.bytes += payload.wire_bytes;
        if (payload.is_encoded()) encoded_bytes += payload.wire_bytes;
        result.values[slot] = std::move(payload);
        cursor = cursor.subspan(frame->frame_bytes);
      }
    }
    Account(result.round_trips, result.bytes, encoded_bytes, /*batch=*/true);
    return result;
  }

  StatusOr<DeltaPushResult> PushDelta(
      uint64_t epoch, std::span<const EdgeDelta> ops) override {
    std::vector<uint8_t> request;
    wire::AppendApplyDelta(epoch, ops, &request);
    return RoundTripDeltaFrame(request, epoch);
  }

  StatusOr<DeltaPushResult> AdvanceEpoch(uint64_t epoch) override {
    std::vector<uint8_t> request;
    wire::AppendEpochAdvance(epoch, &request);
    return RoundTripDeltaFrame(request, epoch);
  }

 private:
  /// Sends one delta frame through every partition server (real frames,
  /// like Fetch — the loopback backend validates the protocol) and
  /// requires a kDeltaAck echoing `epoch` from each.
  StatusOr<DeltaPushResult> RoundTripDeltaFrame(
      const std::vector<uint8_t>& request, uint64_t epoch) {
    DeltaPushResult result;
    for (auto& server : servers_) {
      std::vector<uint8_t> reply;
      server->HandleFrame(request, &reply);
      auto frame = wire::DecodeFrame(reply);
      BENU_RETURN_IF_ERROR(frame.status());
      if (frame->header.type == wire::MessageType::kError) {
        return wire::DecodeError(*frame);
      }
      auto acked = wire::DecodeDeltaAck(*frame);
      BENU_RETURN_IF_ERROR(acked.status());
      if (*acked != epoch) {
        return Status::Internal("delta ack epoch mismatch");
      }
      ++result.acked_servers;
    }
    return result;
  }

  /// Decodes one adjacency reply frame that must answer `expected_key`.
  Status DecodeReply(const wire::Frame& frame, VertexId expected_key,
                     AdjacencyPayload* payload) const {
    VertexId key = kInvalidVertex;
    BENU_RETURN_IF_ERROR(
        DecodeAdjacencyPayload(frame, graph_.NumVertices(), &key, payload));
    if (key != expected_key) {
      return Status::Internal("reply key mismatch");
    }
    return Status::OK();
  }

  Graph graph_;
  size_t num_partitions_;
  uint32_t graph_hash_;
  bool compress_;
  std::vector<std::unique_ptr<KvPartitionServer>> servers_;
};

}  // namespace

Status DecodeAdjacencyPayload(const wire::Frame& frame, size_t num_vertices,
                              VertexId* key, AdjacencyPayload* payload) {
  VertexId last = 0;
  size_t count = 0;
  if (wire::FrameIsEncoded(frame)) {
    auto set = std::make_shared<codec::EncodedSet>();
    BENU_RETURN_IF_ERROR(
        wire::DecodeEncodedAdjacencyReply(frame, key, set.get(), &last));
    count = set->count;
    payload->encoded = std::move(set);
  } else {
    auto set = std::make_shared<VertexSet>();
    BENU_RETURN_IF_ERROR(wire::DecodeAdjacencyReply(frame, key, set.get()));
    count = set->size();
    if (count > 0) last = set->back();
    payload->decoded = std::move(set);
  }
  if (count > 0 && last >= num_vertices) {
    return Status::InvalidArgument(
        "adjacency reply holds vertex " + std::to_string(last) +
        " of a graph with " + std::to_string(num_vertices) + " vertices");
  }
  payload->wire_bytes = frame.frame_bytes;
  return Status::OK();
}

StatusOr<PreparedDataGraph> PrepareDataGraph(const Graph& data_graph,
                                             bool relabel_by_degree,
                                             const Transport* transport,
                                             std::vector<int> labels) {
  if (transport != nullptr &&
      transport->num_vertices() != data_graph.NumVertices()) {
    return Status::InvalidArgument(
        "transport stores " + std::to_string(transport->num_vertices()) +
        " vertices but the data graph has " +
        std::to_string(data_graph.NumVertices()));
  }
  PreparedDataGraph prepared;
  prepared.graph = relabel_by_degree
                       ? data_graph.RelabelByDegree(&prepared.old_to_new)
                       : data_graph;
  if (transport != nullptr &&
      transport->graph_hash() != prepared.graph.FoldedContentHash()) {
    return Status::InvalidArgument(
        relabel_by_degree
            ? "relabel_by_degree produced a labeling the transport does "
              "not store (graph hash mismatch): build the transport from "
              "the degree-relabeled graph (benu_kv_server --relabel=1)"
            : "transport stores a differently-labeled graph (graph hash "
              "mismatch): both sides must hold the same labeling");
  }
  if (!labels.empty() && relabel_by_degree) {
    prepared.labels.resize(labels.size());
    for (VertexId v = 0; v < labels.size(); ++v) {
      prepared.labels[prepared.old_to_new[v]] = labels[v];
    }
  } else {
    prepared.labels = std::move(labels);
  }
  return prepared;
}

std::shared_ptr<Transport> MakeSimulatedTransport(const Graph& graph,
                                                  size_t num_partitions,
                                                  bool compress) {
  return std::make_shared<SimulatedTransport>(graph, num_partitions,
                                              compress);
}

std::shared_ptr<Transport> MakeLoopbackTransport(const Graph& graph,
                                                 size_t num_partitions,
                                                 bool compress) {
  return std::make_shared<LoopbackTransport>(graph, num_partitions,
                                             compress);
}

}  // namespace benu
