#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/transport.h"

namespace perfbench {

/// One span the benchmark recorded around a call into a layer. Every
/// span of one operation (a pass, a query, an epoch) shares `trace`.
struct Span {
  const char* name = "";  ///< static string
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t trace = 0;
  int64_t start_ns = 0;  ///< since the recorder was created
  int64_t end_ns = 0;
  uint32_t thread = 0;  ///< small per-process thread number
};

/// In-memory span store of the traced run. Spans are only recorded
/// while enabled and are written out once, when the run ends. Record()
/// is thread-safe: transport spans arrive from the runtime's threads.
class SpanRecorder {
 public:
  /// Keeps at most this many spans; later ones are counted as dropped.
  static constexpr size_t kMaxSpans = 4'000'000;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  int64_t NowNs() const;
  void Record(const Span& span);

  /// Parent and trace id for spans opened on threads the benchmark does
  /// not own (the cluster runtime's workers call the transport). Set by
  /// the driving thread around each call it makes; 0 when the caller
  /// cannot be known (concurrent service queries).
  void SetAmbient(uint64_t parent, uint64_t trace);
  uint64_t ambient_parent() const { return ambient_parent_.load(); }
  uint64_t ambient_trace() const { return ambient_trace_.load(); }

  size_t size() const;
  size_t dropped() const;
  /// Writes every span as a JSON array; false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> ambient_parent_{0};
  std::atomic<uint64_t> ambient_trace_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  size_t dropped_ = 0;       // guarded by mu_
};

/// RAII span around one benchmark call. Records nothing when the
/// recorder is disabled at construction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, uint64_t parent,
             uint64_t trace);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// 0 when not recording.
  uint64_t id() const { return span_.id; }

 private:
  SpanRecorder& recorder_;
  Span span_;
};

/// What the timing decorator saw while recording.
struct TransportTiming {
  uint64_t calls = 0;        ///< Fetch + FetchBatch calls
  uint64_t round_trips = 0;  ///< as the inner transport reported them
  uint64_t wire_bytes = 0;   ///< Σ AdjacencyPayload::wire_bytes
  uint64_t raw_bytes = 0;    ///< Σ entries × sizeof(VertexId)
  double busy_ns = 0;        ///< Σ call durations (overlapping threads add)
  std::vector<double> call_us;  ///< one duration per call
};

/// Transport decorator: forwards every call to `inner` and, while the
/// recorder is enabled, times each Fetch / FetchBatch as a span and
/// tallies round trips and bytes. Disabled, it costs one relaxed load.
class TimedTransport final : public benu::Transport {
 public:
  TimedTransport(std::shared_ptr<benu::Transport> inner,
                 SpanRecorder* recorder);

  const char* name() const override { return inner_->name(); }
  size_t num_partitions() const override { return inner_->num_partitions(); }
  size_t num_vertices() const override { return inner_->num_vertices(); }
  uint32_t graph_hash() const override { return inner_->graph_hash(); }
  bool compressed() const override { return inner_->compressed(); }

  benu::StatusOr<benu::AdjacencyPayload> Fetch(benu::VertexId v) override;
  benu::StatusOr<BatchResult> FetchBatch(
      std::span<const benu::VertexId> keys) override;
  benu::StatusOr<DeltaPushResult> PushDelta(
      uint64_t epoch, std::span<const benu::EdgeDelta> ops) override;
  benu::StatusOr<DeltaPushResult> AdvanceEpoch(uint64_t epoch) override;

  /// Returns and clears the tallies.
  TransportTiming TakeTiming();

 private:
  void Tally(const char* span_name, int64_t start_ns, size_t round_trips,
             const benu::AdjacencyPayload* values, size_t num_values);

  std::shared_ptr<benu::Transport> inner_;
  SpanRecorder* recorder_;
  std::mutex mu_;
  TransportTiming timing_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
