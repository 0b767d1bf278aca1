#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {

uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t number = next.fetch_add(1);
  return number;
}

}  // namespace

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void SpanRecorder::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

void SpanRecorder::SetAmbient(uint64_t parent, uint64_t trace) {
  ambient_parent_.store(parent);
  ambient_trace_.store(trace);
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

size_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("[\n", out);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"trace\":%llu,\"thread\":%u,\"start_ns\":%lld,"
                 "\"end_ns\":%lld}%s\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace), s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder& recorder, const char* name,
                       uint64_t parent, uint64_t trace)
    : recorder_(recorder) {
  if (!recorder_.enabled()) return;
  span_.name = name;
  span_.id = recorder_.NewId();
  span_.parent = parent;
  span_.trace = trace;
  span_.thread = ThreadNumber();
  span_.start_ns = recorder_.NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (span_.id == 0) return;
  span_.end_ns = recorder_.NowNs();
  recorder_.Record(span_);
}

TimedTransport::TimedTransport(std::shared_ptr<benu::Transport> inner,
                               SpanRecorder* recorder)
    : inner_(std::move(inner)), recorder_(recorder) {}

benu::StatusOr<benu::AdjacencyPayload> TimedTransport::Fetch(
    benu::VertexId v) {
  if (!recorder_->enabled()) return inner_->Fetch(v);
  const int64_t start = recorder_->NowNs();
  auto result = inner_->Fetch(v);
  Tally("transport.fetch", start, 1, result.ok() ? &*result : nullptr,
        result.ok() ? 1 : 0);
  return result;
}

benu::StatusOr<benu::Transport::BatchResult> TimedTransport::FetchBatch(
    std::span<const benu::VertexId> keys) {
  if (!recorder_->enabled()) return inner_->FetchBatch(keys);
  const int64_t start = recorder_->NowNs();
  auto result = inner_->FetchBatch(keys);
  if (result.ok()) {
    Tally("transport.fetch_batch", start, result->round_trips,
          result->values.data(), result->values.size());
  } else {
    Tally("transport.fetch_batch", start, 0, nullptr, 0);
  }
  return result;
}

benu::StatusOr<benu::Transport::DeltaPushResult> TimedTransport::PushDelta(
    uint64_t epoch, std::span<const benu::EdgeDelta> ops) {
  return inner_->PushDelta(epoch, ops);
}

benu::StatusOr<benu::Transport::DeltaPushResult>
TimedTransport::AdvanceEpoch(uint64_t epoch) {
  return inner_->AdvanceEpoch(epoch);
}

void TimedTransport::Tally(const char* span_name, int64_t start_ns,
                           size_t round_trips,
                           const benu::AdjacencyPayload* values,
                           size_t num_values) {
  const int64_t end_ns = recorder_->NowNs();
  Span span;
  span.name = span_name;
  span.id = recorder_->NewId();
  span.parent = recorder_->ambient_parent();
  span.trace = recorder_->ambient_trace();
  span.thread = ThreadNumber();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  recorder_->Record(span);

  uint64_t wire = 0;
  uint64_t raw = 0;
  for (size_t i = 0; i < num_values; ++i) {
    wire += values[i].wire_bytes;
    raw += values[i].size() * sizeof(benu::VertexId);
  }
  const double ns = static_cast<double>(end_ns - start_ns);
  std::lock_guard<std::mutex> lock(mu_);
  ++timing_.calls;
  timing_.round_trips += round_trips;
  timing_.wire_bytes += wire;
  timing_.raw_bytes += raw;
  timing_.busy_ns += ns;
  timing_.call_us.push_back(ns / 1000.0);
}

TransportTiming TimedTransport::TakeTiming() {
  std::lock_guard<std::mutex> lock(mu_);
  TransportTiming out = std::move(timing_);
  timing_ = TransportTiming{};
  return out;
}

}  // namespace perfbench
