// perfbench: the repository benchmark. Runs one workload through BENU's
// public front ends (RunBenu, the service client and server,
// DynamicRunner), checks every count against a reference, and prints one
// JSON object as the last line of stdout: the end-to-end metrics of an
// untraced run (--trace=0), or the per-layer metrics of a traced run
// (--trace=1). Nothing inside the library is changed to measure it; the
// layers are timed from outside (see README.md in this directory).
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--trace-dir=DIR] [--git-commit=SHA] [--source-sha=HEX]
//
// Workloads: enum-hot, enum-tcp, service-mix, dynamic-q5. run.py in this
// directory builds the binary from source and translates its arguments.

#include <sched.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flags_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "distributed/benu_driver.h"
#include "distributed/dynamic_runner.h"
#include "graph/generators.h"
#include "graph/patterns.h"
#include "service/query_engine.h"
#include "service/service_client.h"
#include "service/service_server.h"
#include "stats.h"
#include "storage/tcp_transport.h"
#include "storage/transport.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace benu;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 7;
/// Set-ups per run; setup_s is their median. Cheap set-ups repeat until
/// a second has passed, so their median rests on more samples.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int HostThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// VmHWM (peak resident set) of a process from /proc, MiB; 0 if unknown.
double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Moves the calling thread over the CPUs it may use, one per Next(),
/// and gives it back its whole mask when destroyed. On a shared host one
/// virtual CPU can run 20% slower than another for minutes; samples
/// taken on each CPU in turn let a median see them all rather than one.
/// Only for single-threaded work: threads and processes started while
/// pinned inherit the one CPU.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

// ---------------------------------------------------------------------
// Metrics sheets.

struct Metric {
  double value = 0;
  std::string unit;
  /// Samples behind a timing (0 for counts and ratios).
  size_t samples = 0;
};

/// An ordered set of named metrics. Per-layer sheets are created with
/// every metric at 0, so a traced run reports the full list on every
/// workload (0 where the workload never reaches the layer).
class Sheet {
 public:
  void Declare(const std::string& name, const std::string& unit) {
    if (index_.emplace(name, metrics_.size()).second) {
      metrics_.push_back({name, {0, unit, 0}});
    }
  }
  void Set(const std::string& name, double value, size_t samples = 0) {
    const auto it = index_.find(name);
    BENU_CHECK(it != index_.end()) << "undeclared metric " << name;
    metrics_[it->second].second.value = value;
    metrics_[it->second].second.samples = samples;
  }
  void Set(const std::string& name, const Percentile& p) {
    Set(name, p.value, p.samples);
  }
  double Get(const std::string& name) const {
    const auto it = index_.find(name);
    return it == index_.end() ? 0 : metrics_[it->second].second.value;
  }
  const std::vector<std::pair<std::string, Metric>>& all() const {
    return metrics_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> metrics_;
  std::map<std::string, size_t> index_;
};

/// The end-to-end metrics every untraced run reports. An "operation" is
/// the workload's unit of work: one pass over its pattern list
/// (enum-hot, enum-tcp), one query (service-mix), one epoch
/// (dynamic-q5).
Sheet EndToEndSheet() {
  Sheet s;
  s.Declare("setup_s", "s");
  s.Declare("op_p50_ms", "ms");
  s.Declare("ops_per_s", "1/s");
  s.Declare("peak_rss_mb", "MiB");
  return s;
}

/// The per-layer metrics every traced run reports. Counts and times are
/// per operation; ratios list their numerator and denominator beside
/// them.
Sheet PerLayerSheet() {
  Sheet s;
  const char* kCount = "count/op";
  const char* kMs = "ms/op";
  const char* kBytes = "bytes/op";
  s.Declare("plan_search.ms", kMs);
  s.Declare("plan_search.estimate_calls", kCount);
  s.Declare("task.count", kCount);
  s.Declare("cluster_runtime.steals", kCount);
  s.Declare("cluster_runtime.claim_ms", kMs);
  s.Declare("cluster_runtime.worker_max_ms", "ms");
  s.Declare("cluster_runtime.worker_mean_ms", "ms");
  s.Declare("cluster_runtime.worker_skew", "ratio");
  for (const char* instr : {"INT", "DBQ", "ENU", "RES", "TRC"}) {
    s.Declare(std::string("executor.") + instr + ".count", kCount);
    s.Declare(std::string("executor.") + instr + ".self_ms", kMs);
  }
  s.Declare("executor.task_p99_us", "us");
  s.Declare("adj_codec.fused_intersects", kCount);
  s.Declare("adj_codec.fallback_decodes", kCount);
  s.Declare("adj_codec.raw_bytes", kBytes);
  s.Declare("adj_codec.wire_ratio", "ratio");
  s.Declare("db_cache.hits", kCount);
  s.Declare("db_cache.lookups", kCount);
  s.Declare("db_cache.hit_ratio", "ratio");
  s.Declare("db_cache.resident_bytes", "bytes");
  s.Declare("db_cache.coalesced", kCount);
  s.Declare("db_cache.coalesced_wait_ms", kMs);
  s.Declare("db_cache.sync_fetch_p50_us", "us");
  s.Declare("db_cache.epoch_invalidations", kCount);
  s.Declare("triangle_cache.hits", kCount);
  s.Declare("triangle_cache.lookups", kCount);
  s.Declare("triangle_cache.hit_ratio", "ratio");
  s.Declare("transport.calls", kCount);
  s.Declare("transport.round_trips", kCount);
  s.Declare("transport.bytes", kBytes);
  s.Declare("transport.busy_ms", kMs);
  s.Declare("transport.fetch_p50_us", "us");
  s.Declare("transport.fetch_p90_us", "us");
  s.Declare("query_engine.queries", "count");
  s.Declare("query_engine.engine_p50_ms", "ms");
  s.Declare("query_engine.tasks_per_query", kCount);
  s.Declare("query_engine.plan_cache_hits", "count");
  s.Declare("query_engine.plan_cache_hit_ratio", "ratio");
  s.Declare("service_server.frontend_p50_ms", "ms");
  s.Declare("versioned_store.patched_reads", kCount);
  s.Declare("dynamic_runner.seed_tasks", kCount);
  s.Declare("dynamic_runner.filter_rejected", kCount);
  s.Declare("dynamic_runner.filter_considered", kCount);
  s.Declare("dynamic_runner.filter_reject_ratio", "ratio");
  s.Declare("trace.traced_op_ms", "ms");
  s.Declare("trace.untraced_op_ms", "ms");
  s.Declare("trace.overhead", "ratio");
  s.Declare("trace.layer_self_ms", "ms");
  s.Declare("trace.thread_wall_ms", "ms");
  s.Declare("trace.coverage", "ratio");
  return s;
}

// ---------------------------------------------------------------------
// Reference counts.

/// Counts of every (workload, query) at the default seed, computed with
/// ReferenceCount below. Any other seed computes them before timing.
const std::map<std::string, Count>& PinnedCounts() {
  static const std::map<std::string, Count> pinned = {
      {"enum-hot/q5", 44368},
      {"enum-hot/q7", 9534},
      {"enum-hot/triangle", 4694},
      {"enum-hot/clique4", 48},
      {"enum-tcp/triangle", 14036},
      {"enum-tcp/clique4", 1881},
      {"enum-tcp/q7", 9593310},
      {"service-mix/triangle", 672},
      {"service-mix/square", 8117},
      {"service-mix/diamond", 817},
      {"service-mix/clique4", 6},
      {"service-mix/clique5", 0},
      {"service-mix/q1", 26897},
      {"service-mix/q2", 389},
      {"service-mix/q3", 6735},
      {"service-mix/q4", 32},
      {"service-mix/q5", 102948},
      {"service-mix/q6", 105397},
      {"service-mix/q7", 1033},
      {"service-mix/q8", 31},
      {"service-mix/q9", 1039},
      {"service-mix/triangle:0:1:2", 158},
      {"service-mix/diamond:0:1:2:1", 19},
      {"dynamic-q5/baseline", 104699},
  };
  return pinned;
}

/// Single-threaded, uncompressed RunBenu: the reference every timed
/// count is checked against.
StatusOr<Count> ReferenceCount(const Graph& graph, const Graph& pattern,
                               bool relabel,
                               const std::vector<int>& data_labels = {},
                               const std::vector<int>& pattern_labels = {}) {
  BenuOptions options;
  options.relabel_by_degree = relabel;
  options.data_labels = data_labels;
  options.plan.pattern_labels = pattern_labels;
  options.cluster.num_workers = 1;
  options.cluster.threads_per_worker = 1;
  options.cluster.execution_threads = 1;
  options.cluster.max_runtime_threads = 1;
  options.cluster.compress_adjacency = false;
  auto result = RunBenu(graph, pattern, options);
  if (!result.ok()) return result.status();
  return result->run.total_matches;
}

/// The pinned count for `key` at the default seed, else `compute()`.
StatusOr<Count> Reference(uint64_t seed, const std::string& key,
                          const std::function<StatusOr<Count>()>& compute) {
  if (seed == kDefaultSeed) {
    const auto it = PinnedCounts().find(key);
    if (it != PinnedCounts().end()) return it->second;
  }
  return compute();
}

// ---------------------------------------------------------------------
// Workloads.

/// Outcome of one timed segment.
struct Segment {
  std::vector<double> op_seconds;  ///< one wall time per operation
  /// Kind of each operation (the query shape for service-mix; 0 where
  /// every operation is alike).
  std::vector<size_t> op_kind;
  FailureTally tally;
  double wall_seconds = 0;
};

/// Latency percentile of a segment's operations, in seconds: the
/// geometric mean over operation kinds of each kind's percentile. A mix
/// of query shapes has gaps between the shapes' latencies, and a
/// percentile of the pooled samples jumps across a gap when the mix
/// shifts slightly; each shape's own percentile does not.
Percentile OpPercentile(const Segment& seg, double p) {
  std::vector<std::vector<double>> by_kind;
  for (size_t i = 0; i < seg.op_seconds.size(); ++i) {
    if (seg.op_kind[i] >= by_kind.size()) by_kind.resize(seg.op_kind[i] + 1);
    by_kind[seg.op_kind[i]].push_back(seg.op_seconds[i]);
  }
  return GeoMeanPercentile(by_kind, p);
}

const metrics::SnapshotEntry* FindEntry(const metrics::MetricsSnapshot& snap,
                                        const std::string& name) {
  for (const auto& e : snap.entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Percentile HistPercentile(const metrics::MetricsSnapshot& snap,
                          const std::string& name, double p) {
  const metrics::SnapshotEntry* e = FindEntry(snap, name);
  return e == nullptr ? Percentile{} : HistogramPercentile(*e, p);
}

class Workload {
 public:
  explicit Workload(SpanRecorder* recorder) : recorder_(recorder) {}
  virtual ~Workload() = default;

  /// What one operation is ("pass", "query", "epoch").
  virtual const char* op_name() const = 0;
  /// Threads the layers may keep busy at once (trace.coverage's base).
  virtual int busy_threads() const = 0;
  /// True when set-up runs on the calling thread alone and starts no
  /// thread or process, so successive set-ups may rotate over CPUs.
  virtual bool single_threaded_setup() const { return false; }
  /// Generates the inputs from `seed` and the reference counts. Untimed.
  virtual Status Prepare(uint64_t seed) = 0;
  /// Builds everything up to the point where the first operation can be
  /// served. With `traced`, the transport is wrapped in the timing
  /// decorator. Timed by the caller, after TearDown.
  virtual Status SetUp(bool traced) = 0;
  /// Destroys the last set-up, if any. Untimed, so setup_s measures
  /// building only. Returns the failures it found (a server child left
  /// behind).
  virtual uint64_t TearDown() = 0;
  /// Untimed work after the last set-up that a resident system does
  /// once (filling the service's plan cache).
  virtual Status WarmUp() { return Status::OK(); }
  /// Runs operations until `deadline` (at least one).
  virtual Segment Measure(Clock::time_point deadline) = 0;
  /// Per-layer metrics only this workload can see (returned values, the
  /// decorator), for the traced segment `seg`.
  virtual void AddLayerMetrics(const Segment& seg, Sheet& sheet) = 0;
  /// Final checks and teardown. Returns the failures it found.
  virtual uint64_t Finish() = 0;
  /// Peak resident set of processes the workload spawned, MiB.
  virtual double ChildPeakRssMb() const { return 0; }

  /// Adds the timing decorator's tallies (traced set-ups only) over
  /// `ops` operations to the sheet.
  void AddTransportMetrics(double ops, Sheet& sheet) {
    if (timed_ == nullptr) return;
    TransportTiming t = timed_->TakeTiming();
    sheet.Set("transport.calls", t.calls / ops);
    sheet.Set("transport.round_trips", t.round_trips / ops);
    sheet.Set("transport.bytes", t.wire_bytes / ops);
    sheet.Set("transport.busy_ms", t.busy_ns / 1e6 / ops);
    sheet.Set("transport.fetch_p50_us", NearestRank(t.call_us, 0.5));
    sheet.Set("transport.fetch_p90_us", NearestRank(t.call_us, 0.9));
    sheet.Set("adj_codec.raw_bytes", t.raw_bytes / ops);
    sheet.Set("adj_codec.wire_ratio",
              Ratio(static_cast<double>(t.raw_bytes),
                    static_cast<double>(t.wire_bytes)));
  }

 protected:
  /// `inner`, or a fresh decorator around it when traced.
  std::shared_ptr<Transport> MaybeTimed(std::shared_ptr<Transport> inner,
                                        bool traced) {
    timed_ = nullptr;
    if (!traced) return inner;
    auto timed = std::make_shared<TimedTransport>(std::move(inner), recorder_);
    timed_ = timed.get();
    return timed;
  }

  SpanRecorder* recorder_;
  TimedTransport* timed_ = nullptr;  ///< owned by the workload's transport
};

/// enum-hot and enum-tcp: RunBenu once per pattern per pass.
class EnumWorkload : public Workload {
 public:
  EnumWorkload(SpanRecorder* recorder, std::string name, bool tcp,
               std::vector<std::string> patterns)
      : Workload(recorder),
        name_(std::move(name)),
        tcp_(tcp),
        pattern_names_(std::move(patterns)) {}

  ~EnumWorkload() override { TearDown(); }

  const char* op_name() const override { return "pass"; }
  int busy_threads() const override { return tcp_ ? 4 : HostThreads(); }

  Status Prepare(uint64_t seed) override {
    spec_ = (tcp_ ? "plc:4000,8,30," : "plc:8000,3,30,") + std::to_string(seed);
    auto graph = GenerateFromSpec(spec_);
    if (!graph.ok()) return graph.status();
    graph_ = graph->RelabelByDegree();
    for (const std::string& name : pattern_names_) {
      auto pattern = GetPattern(name);
      if (!pattern.ok()) return pattern.status();
      auto ref = Reference(seed, name_ + "/" + name, [&] {
        return ReferenceCount(graph_, *pattern, /*relabel=*/false);
      });
      if (!ref.ok()) return ref.status();
      patterns_.push_back(*pattern);
      references_.push_back(*ref);
      std::printf("  reference %s/%s = %llu\n", name_.c_str(), name.c_str(),
                  static_cast<unsigned long long>(*ref));
    }
    std::printf("  graph %s: %zu vertices, %zu edges\n", spec_.c_str(),
                graph_.NumVertices(), graph_.NumEdges());
    return Status::OK();
  }

  Status SetUp(bool traced) override {
    std::shared_ptr<Transport> inner;
    if (!tcp_) {
      // The paper's one-machine shape: the store is loaded once; every
      // RunBenu call builds a fresh DbCache over it.
      inner = MakeSimulatedTransport(graph_, 16, /*compress=*/true);
    } else {
      std::vector<flags::ServerProcess>& fleet = flags::SpawnedRegistry();
      std::vector<ReplicaGroup> groups;
      for (size_t i = 0; i < kServers; ++i) {
        flags::KvServerSpawnOptions spawn;
        spawn.graph_spec = spec_;
        spawn.partitions = 16;
        spawn.servers = kServers;
        spawn.index = i;
        fleet.push_back(
            flags::SpawnKvServer(flags::SelfDir() + "/benu_kv_server", spawn));
        groups.push_back({{{"127.0.0.1", fleet.back().port}}});
      }
      auto connected = ConnectTcpTransport(groups);
      if (!connected.ok()) return connected.status();
      inner = *connected;
    }
    transport_ = MaybeTimed(std::move(inner), traced);
    return Status::OK();
  }

  Segment Measure(Clock::time_point deadline) override {
    Segment seg;
    plan_seconds_ = 0;
    estimate_calls_ = 0;
    worker_max_.clear();
    worker_mean_.clear();
    const auto start = Clock::now();
    do {
      const uint64_t trace = recorder_->NewId();
      ScopedSpan pass(*recorder_, "pass", 0, trace);
      const auto t0 = Clock::now();
      bool ok = true;
      for (size_t i = 0; i < patterns_.size(); ++i) {
        ScopedSpan call(*recorder_, "run_benu", pass.id(), trace);
        recorder_->SetAmbient(call.id(), trace);
        auto result = RunBenu(graph_, patterns_[i], Options());
        if (!result.ok()) {
          std::fprintf(stderr, "%s: %s\n", pattern_names_[i].c_str(),
                       result.status().ToString().c_str());
          ok = false;
          continue;
        }
        if (result->run.total_matches != references_[i]) {
          std::fprintf(stderr, "%s: %llu matches, reference %llu\n",
                       pattern_names_[i].c_str(),
                       static_cast<unsigned long long>(
                           result->run.total_matches),
                       static_cast<unsigned long long>(references_[i]));
          ok = false;
        }
        plan_seconds_ += result->plan.elapsed_seconds;
        estimate_calls_ += result->plan.estimate_calls;
        double max_s = 0;
        double sum_s = 0;
        for (const WorkerSummary& w : result->run.workers) {
          max_s = std::max(max_s, w.real_seconds);
          sum_s += w.real_seconds;
        }
        if (!result->run.workers.empty()) {
          worker_max_.push_back(max_s);
          worker_mean_.push_back(sum_s / result->run.workers.size());
        }
      }
      recorder_->SetAmbient(0, 0);
      seg.op_seconds.push_back(SecondsSince(t0));
      seg.op_kind.push_back(0);
      seg.tally.Record(ok);
    } while (Clock::now() < deadline);
    seg.wall_seconds = SecondsSince(start);
    return seg;
  }

  void AddLayerMetrics(const Segment& seg, Sheet& sheet) override {
    const double ops = static_cast<double>(seg.op_seconds.size());
    sheet.Set("plan_search.ms", plan_seconds_ * 1e3 / ops);
    sheet.Set("plan_search.estimate_calls", estimate_calls_ / ops);
    const Percentile max_ms = NearestRank(worker_max_, 0.5);
    const Percentile mean_ms = NearestRank(worker_mean_, 0.5);
    sheet.Set("cluster_runtime.worker_max_ms", max_ms.value * 1e3,
              max_ms.samples);
    sheet.Set("cluster_runtime.worker_mean_ms", mean_ms.value * 1e3,
              mean_ms.samples);
    std::vector<double> skew;
    for (size_t i = 0; i < worker_max_.size(); ++i) {
      skew.push_back(Ratio(worker_max_[i], worker_mean_[i]));
    }
    sheet.Set("cluster_runtime.worker_skew", NearestRank(skew, 0.5));
  }

  uint64_t TearDown() override {
    transport_.reset();  // drop the connections before the servers
    return StopFleet();
  }

  uint64_t Finish() override { return TearDown(); }

  double ChildPeakRssMb() const override { return child_rss_mb_; }

 private:
  static constexpr size_t kServers = 2;

  BenuOptions Options() const {
    BenuOptions options;
    options.relabel_by_degree = false;  // graph_ is already relabeled
    options.cluster.transport = transport_;
    if (!tcp_) {
      // 1 worker × nproc threads sharing one DbCache (the default
      // 256 MiB holds the whole graph), τ = 64.
      options.cluster.num_workers = 1;
      options.cluster.threads_per_worker = HostThreads();
      options.cluster.execution_threads = HostThreads();
      options.cluster.task_split_threshold = 64;
    } else {
      // ClusterConfig's 4 workers × 1 thread, each with a private
      // 64 KiB cache: smaller than the working set.
      options.cluster.db_cache_bytes = 64u << 10;
    }
    return options;
  }

  /// Kills and reaps the fleet (recording its peak RSS first). Returns 1
  /// if a child was left behind, else 0.
  uint64_t StopFleet() {
    std::vector<flags::ServerProcess>& fleet = flags::SpawnedRegistry();
    if (fleet.empty()) return 0;
    double rss = 0;
    for (const flags::ServerProcess& s : fleet) {
      if (s.pid > 0) rss += PeakRssMb(std::to_string(s.pid));
    }
    child_rss_mb_ = std::max(child_rss_mb_, rss);
    flags::KillServers(fleet);
    fleet.clear();
    errno = 0;
    const pid_t left = waitpid(-1, nullptr, WNOHANG);
    if (left == -1 && errno == ECHILD) return 0;
    std::fprintf(stderr, "a benu_kv_server child outlived its fleet\n");
    return 1;
  }

  std::string name_;
  bool tcp_;
  std::vector<std::string> pattern_names_;
  std::string spec_;
  Graph graph_;
  std::vector<Graph> patterns_;
  std::vector<Count> references_;
  std::shared_ptr<Transport> transport_;
  double child_rss_mb_ = 0;
  double plan_seconds_ = 0;
  double estimate_calls_ = 0;
  std::vector<double> worker_max_;
  std::vector<double> worker_mean_;
};

/// service-mix: nproc closed-loop ServiceClients against an in-process
/// ServiceTcpServer over a QueryEngine.
class ServiceWorkload : public Workload {
 public:
  using Workload::Workload;

  ~ServiceWorkload() override { TearDown(); }

  const char* op_name() const override { return "query"; }
  int busy_threads() const override { return HostThreads(); }

  Status Prepare(uint64_t seed) override {
    const std::string spec = "er:300,2400," + std::to_string(seed);
    auto graph = GenerateFromSpec(spec);
    if (!graph.ok()) return graph.status();
    graph_ = *graph;
    labels_.resize(graph_.NumVertices());
    for (size_t v = 0; v < labels_.size(); ++v) {
      labels_[v] = static_cast<int>(v % 3);
    }
    // bench_service's mix: the unlabeled catalog plus 2 labeled queries.
    for (const std::string& name : AllPatternNames()) mix_.push_back({name, {}});
    mix_.push_back({"triangle", {0, 1, 2}});
    mix_.push_back({"diamond", {0, 1, 2, 1}});
    for (Item& item : mix_) {
      auto pattern = GetPattern(item.name);
      if (!pattern.ok()) return pattern.status();
      std::string key = "service-mix/" + item.name;
      for (const int l : item.labels) key += ":" + std::to_string(l);
      auto ref = Reference(seed, key, [&] {
        return ReferenceCount(graph_, *pattern, /*relabel=*/true, labels_,
                              item.labels);
      });
      if (!ref.ok()) return ref.status();
      item.reference = *ref;
      std::printf("  reference %s = %llu\n", key.c_str(),
                  static_cast<unsigned long long>(*ref));
    }
    walk_seed_ = seed;
    std::printf("  graph %s: %zu vertices, %zu edges; %zu-query mix\n",
                spec.c_str(), graph_.NumVertices(), graph_.NumEdges(),
                mix_.size());
    return Status::OK();
  }

  Status SetUp(bool traced) override {
    service::ServiceConfig config;
    config.execution_threads = HostThreads();
    config.db_cache_bytes = 32u << 20;
    config.max_active_queries = 64;
    auto transport = MaybeTimed(
        MakeSimulatedTransport(graph_.RelabelByDegree(), config.db_partitions,
                               config.compress_adjacency),
        traced);
    auto engine = service::QueryEngine::Create(graph_, config,
                                               std::move(transport), labels_);
    if (!engine.ok()) return engine.status();
    engine_ = engine->get();
    server_ = std::make_unique<service::ServiceTcpServer>(std::move(*engine));
    Status status = server_->Listen(0);
    if (status.ok()) status = server_->Start();
    if (!status.ok()) return status;
    for (int c = 0; c < HostThreads(); ++c) {
      auto client = service::ServiceClient::Connect("127.0.0.1",
                                                    server_->port());
      if (!client.ok()) return client.status();
      clients_.push_back(std::move(*client));
    }
    return Status::OK();
  }

  Status WarmUp() override {
    // One walk fills the plan cache and the DbCache, so the timed part
    // measures the resident service.
    for (const Item& item : mix_) {
      auto outcome = clients_[0]->Execute(Spec(item));
      if (!outcome.ok()) return outcome.status();
    }
    return Status::OK();
  }

  Segment Measure(Clock::time_point deadline) override {
    struct PerClient {
      std::vector<double> seconds;
      std::vector<size_t> kinds;
      std::vector<wire::QueryResultInfo> infos;
      FailureTally tally;
    };
    std::vector<PerClient> per(clients_.size());
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        // Each client walks the whole mix once per round, in an order of
        // its own drawn afresh every round: which shapes run side by side
        // then varies evenly over a run instead of locking into one
        // pattern for the whole run.
        std::mt19937_64 rng(walk_seed_ * 1000003 + c + 1);
        std::vector<size_t> order(mix_.size());
        for (size_t i = 0; Clock::now() < deadline; ++i) {
          if (i % order.size() == 0) {
            std::iota(order.begin(), order.end(), 0);
            std::shuffle(order.begin(), order.end(), rng);
          }
          const size_t kind = order[i % order.size()];
          const Item& item = mix_[kind];
          const uint64_t trace = recorder_->NewId();
          ScopedSpan span(*recorder_, "service_client.execute", 0, trace);
          const auto t0 = Clock::now();
          auto outcome = clients_[c]->Execute(Spec(item));
          const double seconds = SecondsSince(t0);
          const bool ok = outcome.ok() && !outcome->cancelled() &&
                          outcome->matches == item.reference;
          if (!ok) {
            std::fprintf(stderr, "%s: %s\n", item.name.c_str(),
                         outcome.ok() ? "count differs from reference"
                                      : outcome.status().ToString().c_str());
          }
          per[c].tally.Record(ok);
          per[c].seconds.push_back(seconds);
          per[c].kinds.push_back(kind);
          if (outcome.ok()) per[c].infos.push_back(*outcome);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    Segment seg;
    seg.wall_seconds = SecondsSince(start);
    infos_.clear();
    frontend_ms_.clear();
    for (PerClient& p : per) {
      seg.tally.Merge(p.tally);
      seg.op_seconds.insert(seg.op_seconds.end(), p.seconds.begin(),
                            p.seconds.end());
      seg.op_kind.insert(seg.op_kind.end(), p.kinds.begin(), p.kinds.end());
      infos_.insert(infos_.end(), p.infos.begin(), p.infos.end());
      // Pair each latency with its result (failed queries have no info).
      if (p.infos.size() == p.seconds.size()) {
        for (size_t i = 0; i < p.infos.size(); ++i) {
          frontend_ms_.push_back(p.seconds[i] * 1e3 -
                                 p.infos[i].elapsed_us / 1e3);
        }
      }
    }
    return seg;
  }

  void AddLayerMetrics(const Segment&, Sheet& sheet) override {
    std::vector<double> engine_ms;
    double tasks = 0;
    double hits = 0;
    for (const wire::QueryResultInfo& info : infos_) {
      engine_ms.push_back(info.elapsed_us / 1e3);
      tasks += static_cast<double>(info.tasks);
      if (info.plan_cache_hit()) ++hits;
    }
    sheet.Set("query_engine.queries", infos_.size());
    sheet.Set("query_engine.engine_p50_ms", NearestRank(engine_ms, 0.5));
    sheet.Set("query_engine.tasks_per_query", Ratio(tasks, infos_.size()));
    sheet.Set("query_engine.plan_cache_hits", hits);
    sheet.Set("query_engine.plan_cache_hit_ratio",
              Ratio(hits, infos_.size()));
    sheet.Set("service_server.frontend_p50_ms",
              NearestRank(frontend_ms_, 0.5));
  }

  uint64_t TearDown() override {
    clients_.clear();
    server_.reset();
    engine_ = nullptr;
    return 0;
  }

  uint64_t Finish() override {
    if (engine_ == nullptr) return 0;
    const service::QueryEngine::EngineStats stats = engine_->stats();
    TearDown();
    if (stats.rejected != 0) {
      std::fprintf(stderr, "%llu queries were rejected at admission\n",
                   static_cast<unsigned long long>(stats.rejected));
    }
    return 0;  // rejections already failed their query in Measure
  }

 private:
  struct Item {
    std::string name;
    std::vector<int> labels;  // empty = unlabeled
    Count reference = 0;
  };

  static wire::QuerySpec Spec(const Item& item) {
    wire::QuerySpec spec;
    spec.pattern = item.name;
    spec.pattern_labels.assign(item.labels.begin(), item.labels.end());
    return spec;
  }

  Graph graph_;
  std::vector<int> labels_;
  std::vector<Item> mix_;
  uint64_t walk_seed_ = 0;
  std::unique_ptr<service::ServiceTcpServer> server_;
  service::QueryEngine* engine_ = nullptr;  ///< owned by server_
  std::vector<std::unique_ptr<service::ServiceClient>> clients_;
  std::vector<wire::QueryResultInfo> infos_;
  std::vector<double> frontend_ms_;
};

/// dynamic-q5: DynamicRunner maintaining q5 over a mixed edge stream.
class DynamicWorkload : public Workload {
 public:
  using Workload::Workload;

  const char* op_name() const override { return "epoch"; }
  int busy_threads() const override { return 1; }
  bool single_threaded_setup() const override { return true; }

  Status Prepare(uint64_t seed) override {
    const std::string spec = "er:4000,32000," + std::to_string(seed);
    auto graph = GenerateFromSpec(spec);
    if (!graph.ok()) return graph.status();
    base_ = *graph;
    auto pattern = GetPattern("q5");
    if (!pattern.ok()) return pattern.status();
    pattern_ = *pattern;
    auto ref = Reference(seed, "dynamic-q5/baseline", [&] {
      return ReferenceCount(base_, pattern_, /*relabel=*/true);
    });
    if (!ref.ok()) return ref.status();
    baseline_reference_ = *ref;
    std::printf("  reference dynamic-q5/baseline = %llu\n",
                static_cast<unsigned long long>(*ref));
    std::printf("  graph %s: %zu vertices, %zu edges; %zu ops per epoch\n",
                spec.c_str(), base_.NumVertices(), base_.NumEdges(), kBatch);
    rng_.seed(seed);
    for (const auto& [u, v] : base_.Edges()) AddPresent(Key(u, v));
    return Status::OK();
  }

  Status SetUp(bool traced) override {
    // Dynamic runs use raw ids as the total order (no relabeling).
    auto transport =
        MaybeTimed(MakeSimulatedTransport(base_, 8, /*compress=*/true), traced);
    auto runner = DynamicRunner::Create(std::move(transport), pattern_);
    if (!runner.ok()) return runner.status();
    auto baseline = (*runner)->RunBaseline();
    if (!baseline.ok()) return baseline.status();
    if (*baseline != baseline_reference_) {
      return Status::Internal("baseline count " + std::to_string(*baseline) +
                              " differs from the reference " +
                              std::to_string(baseline_reference_));
    }
    runner_ = std::move(*runner);
    return Status::OK();
  }

  uint64_t TearDown() override {
    runner_.reset();
    return 0;
  }

  Segment Measure(Clock::time_point deadline) override {
    Segment seg;
    seed_tasks_ = 0;
    rejected_ = 0;
    considered_ = 0;
    // The epochs run on one thread, which the kernel keeps on one CPU;
    // each epoch moves to the next CPU (between epochs, untimed).
    CpuRotation rotation;
    const auto start = Clock::now();
    do {
      rotation.Next();
      const std::vector<EdgeDelta> ops = NextBatch();
      const uint64_t trace = recorder_->NewId();
      ScopedSpan span(*recorder_, "apply_batch", 0, trace);
      recorder_->SetAmbient(span.id(), trace);
      const auto t0 = Clock::now();
      auto report = runner_->ApplyBatch(ops);
      seg.op_seconds.push_back(SecondsSince(t0));
      seg.op_kind.push_back(0);
      recorder_->SetAmbient(0, 0);
      seg.tally.Record(report.ok());
      if (!report.ok()) {
        std::fprintf(stderr, "epoch: %s\n",
                     report.status().ToString().c_str());
        continue;
      }
      seed_tasks_ += report->seed_tasks;
      rejected_ += report->filter_rejected;
      considered_ += FilterConsidered(*report);
    } while (Clock::now() < deadline);
    seg.wall_seconds = SecondsSince(start);
    return seg;
  }

  void AddLayerMetrics(const Segment& seg, Sheet& sheet) override {
    const double ops = static_cast<double>(seg.op_seconds.size());
    sheet.Set("dynamic_runner.seed_tasks", seed_tasks_ / ops);
    sheet.Set("dynamic_runner.filter_rejected", rejected_ / ops);
    sheet.Set("dynamic_runner.filter_considered", considered_ / ops);
    sheet.Set("dynamic_runner.filter_reject_ratio",
              Ratio(rejected_, considered_));
  }

  uint64_t Finish() override {
    if (runner_ == nullptr) return 0;
    auto recount = runner_->Recount();
    const bool ok = recount.ok() && *recount == runner_->total_matches();
    std::printf("  maintained total %llu, recount %s\n",
                static_cast<unsigned long long>(runner_->total_matches()),
                recount.ok() ? std::to_string(*recount).c_str()
                             : recount.status().ToString().c_str());
    TearDown();
    return ok ? 0 : 1;
  }

 private:
  /// 1% of the base edges per epoch.
  static constexpr size_t kBatch = 320;

  static uint64_t Key(VertexId u, VertexId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  }

  void AddPresent(uint64_t key) {
    present_index_.emplace(key, present_.size());
    present_.push_back(key);
  }

  void RemovePresent(size_t i) {
    present_index_.erase(present_[i]);
    if (i + 1 != present_.size()) {
      present_[i] = present_.back();
      present_index_[present_[i]] = i;
    }
    present_.pop_back();
  }

  /// Half inserts of absent edges, half deletes of present ones, so the
  /// graph's size (and each epoch's cost) stays stationary however many
  /// epochs a run reaches.
  std::vector<EdgeDelta> NextBatch() {
    const VertexId n = static_cast<VertexId>(base_.NumVertices());
    std::vector<EdgeDelta> ops;
    while (ops.size() < kBatch) {
      if (rng_() % 2 == 0 && !present_.empty()) {
        const size_t i = rng_() % present_.size();
        const uint64_t key = present_[i];
        ops.push_back({static_cast<VertexId>(key >> 32),
                       static_cast<VertexId>(key & 0xffffffffu), false});
        RemovePresent(i);
      } else {
        const VertexId u = static_cast<VertexId>(rng_() % n);
        const VertexId v = static_cast<VertexId>(rng_() % n);
        if (u == v || present_index_.count(Key(u, v)) != 0) continue;
        ops.push_back({u, v, true});
        AddPresent(Key(u, v));
      }
    }
    return ops;
  }

  Graph base_;
  Graph pattern_;
  Count baseline_reference_ = 0;
  std::mt19937_64 rng_;
  std::unique_ptr<DynamicRunner> runner_;
  std::vector<uint64_t> present_;
  std::unordered_map<uint64_t, size_t> present_index_;
  double seed_tasks_ = 0;
  double rejected_ = 0;
  double considered_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       SpanRecorder* recorder) {
  if (name == "enum-hot") {
    return std::make_unique<EnumWorkload>(
        recorder, name, /*tcp=*/false,
        std::vector<std::string>{"q5", "q7", "triangle", "clique4"});
  }
  if (name == "enum-tcp") {
    return std::make_unique<EnumWorkload>(
        recorder, name, /*tcp=*/true,
        std::vector<std::string>{"triangle", "clique4", "q7"});
  }
  if (name == "service-mix") {
    return std::make_unique<ServiceWorkload>(recorder);
  }
  if (name == "dynamic-q5") {
    return std::make_unique<DynamicWorkload>(recorder);
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// The run.

/// Per-layer metrics read from a registry snapshot of the traced segment.
void AddRegistryMetrics(const metrics::MetricsSnapshot& snap, double ops,
                        Sheet& sheet) {
  const auto c = [&](const std::string& name) {
    return CounterValue(snap, name);
  };
  sheet.Set("task.count",
            (c("cluster.tasks") + c("service.tasks.executed") +
             c("dynamic.seed_tasks")) /
                ops);
  sheet.Set("cluster_runtime.steals", c("scheduler.steals") / ops);
  sheet.Set("cluster_runtime.claim_ms", c("cluster.phase.claim_ns") / 1e6 / ops);
  for (const char* instr : {"INT", "DBQ", "ENU", "RES", "TRC"}) {
    const std::string base = std::string("executor.instr.") + instr;
    sheet.Set(std::string("executor.") + instr + ".count",
              c(base + ".count") / ops);
    sheet.Set(std::string("executor.") + instr + ".self_ms",
              c(base + ".self_ns") / 1e6 / ops);
  }
  sheet.Set("executor.task_p99_us",
            HistPercentile(snap, "executor.task.us", 0.99));
  sheet.Set("adj_codec.fused_intersects", c("codec.intersect.fused") / ops);
  sheet.Set("adj_codec.fallback_decodes",
            c("codec.intersect.fallback_decodes") / ops);
  const double hits = c("db_cache.hits");
  const double lookups = CacheLookups(snap, "db_cache");
  sheet.Set("db_cache.hits", hits / ops);
  sheet.Set("db_cache.lookups", lookups / ops);
  sheet.Set("db_cache.hit_ratio", Ratio(hits, lookups));
  sheet.Set("db_cache.coalesced", c("db_cache.coalesced") / ops);
  sheet.Set("db_cache.coalesced_wait_ms",
            c("db_cache.coalesced_wait.us") / 1e3 / ops);
  sheet.Set("db_cache.sync_fetch_p50_us",
            HistPercentile(snap, "db_cache.sync_fetch.us", 0.5));
  sheet.Set("db_cache.epoch_invalidations",
            c("db_cache.epoch_invalidations") / ops);
  const double tc_hits = c("triangle_cache.hits");
  const double tc_lookups = CacheLookups(snap, "triangle_cache");
  sheet.Set("triangle_cache.hits", tc_hits / ops);
  sheet.Set("triangle_cache.lookups", tc_lookups / ops);
  sheet.Set("triangle_cache.hit_ratio", Ratio(tc_hits, tc_lookups));
  sheet.Set("versioned_store.patched_reads",
            c("store.epoch.patched_reads") / ops);
}

/// Σ exclusive executor time plus scheduler claims, ms: the layer self
/// time the registry's exclusive spans account for.
double LayerSelfMs(const metrics::MetricsSnapshot& snap) {
  double ns = CounterValue(snap, "cluster.phase.claim_ns");
  for (const char* instr : {"INI", "DBQ", "INT", "ENU", "TRC", "RES"}) {
    ns += CounterValue(snap, std::string("executor.instr.") + instr +
                                 ".self_ns");
  }
  return ns / 1e6;
}

/// Samples db_cache.resident_bytes every millisecond while alive and
/// keeps the peak (enum caches live only inside each RunBenu call).
class ResidentSampler {
 public:
  ResidentSampler()
      : gauge_(metrics::MetricsRegistry::Global().GetGauge(
            "db_cache.resident_bytes", "bytes")),
        thread_([this] {
          while (!stop_.load()) {
            peak_ = std::max(peak_, gauge_->Value());
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  ~ResidentSampler() { Stop(); }
  ResidentSampler(const ResidentSampler&) = delete;
  ResidentSampler& operator=(const ResidentSampler&) = delete;

  /// Joins the sampler; returns the peak seen.
  double Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return peak_;
  }

 private:
  metrics::Gauge* gauge_;
  std::atomic<bool> stop_{false};
  double peak_ = 0;  // written by thread_ until joined
  std::thread thread_;
};

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
  std::string git_commit = "unknown";
  std::string source_sha = "unknown";
};

void PrintSheet(const char* title, const Sheet& sheet) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : sheet.all()) {
    if (m.samples > 0) {
      std::printf("  %-36s %14.6g %-9s (n=%zu)\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-36s %14.6g %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

/// The end-to-end numbers under the per-workload names of README.md
/// (pass_s, qps, query_p90_ms, ...), with their sample counts. The p90s
/// are printed here only: a pass-based run has too few samples for one.
void PrintNamedMetrics(const Workload& w, const Segment& seg,
                       double failed_frac) {
  const Percentile p50 = OpPercentile(seg, 0.5);
  const Percentile p90 = OpPercentile(seg, 0.9);
  const std::string op = w.op_name();
  std::printf("named:\n");
  if (op == "pass") {
    std::printf("  pass_s = %.6g s (n=%zu)\n", p50.value, p50.samples);
  } else {
    if (op == "query") {
      std::printf("  qps = %.6g 1/s (n=%zu)\n",
                  seg.op_seconds.size() / seg.wall_seconds, p50.samples);
    }
    std::printf("  %s_p50_ms = %.6g ms (n=%zu)\n", op.c_str(),
                p50.value * 1e3, p50.samples);
    std::printf("  %s_p90_ms = %.6g ms (n=%zu%s)\n", op.c_str(),
                p90.value * 1e3, p90.samples,
                HasTenBeyond(p90.samples, 0.9) ? "" : ", fewer than 10 beyond");
  }
  std::printf("  failed_frac = %.6g ratio\n", failed_frac);
}

int Run(const Args& args) {
  // Registry tracing starts from the BENU_TRACE environment variable;
  // only the traced segment of a --trace=1 run may have it on.
  metrics::SetTracingEnabled(false);
  SpanRecorder recorder;
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, &recorder);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown --workload=%s\n",
                 args.workload.c_str());
    return 2;
  }

  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %d, \"cpu_model\": %s, \"build_type\": %s, "
      "\"compiler\": %s, \"git_commit\": %s, \"source_sha256\": %s}}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      Number(args.seconds).c_str(), args.trace ? 1 : 0, HostThreads(),
      JsonString(CpuModel()).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(Compiler()).c_str(),
      JsonString(args.git_commit).c_str(),
      JsonString(args.source_sha).c_str());

  std::printf("prepare (untimed):\n");
  Status status = workload->Prepare(args.seed);
  if (!status.ok()) {
    std::fprintf(stderr, "prepare: %s\n", status.ToString().c_str());
    return 1;
  }

  std::vector<double> setups;
  uint64_t teardown_failures = 0;
  std::optional<CpuRotation> rotation;
  if (workload->single_threaded_setup()) rotation.emplace();
  const auto setup_start = Clock::now();
  for (int i = 0; i < kMinSetups ||
                  (i < kMaxSetups && SecondsSince(setup_start) < 1.0);
       ++i) {
    teardown_failures += workload->TearDown();
    if (rotation) rotation->Next();
    const auto t0 = Clock::now();
    status = workload->SetUp(args.trace);
    setups.push_back(SecondsSince(t0));
    if (!status.ok()) {
      std::fprintf(stderr, "set-up: %s\n", status.ToString().c_str());
      workload->Finish();
      return 1;
    }
  }
  rotation.reset();
  status = workload->WarmUp();
  if (!status.ok()) {
    std::fprintf(stderr, "warm-up: %s\n", status.ToString().c_str());
    workload->Finish();
    return 1;
  }

  FailureTally tally;
  Segment seg;
  Sheet sheet = args.trace ? PerLayerSheet() : EndToEndSheet();
  if (!args.trace) {
    seg = workload->Measure(Clock::now() +
                            std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(args.seconds)));
    tally.Merge(seg.tally);
  } else {
    // Untraced half first (the overhead baseline), then the same
    // workload with registry tracing and the benchmark's spans on.
    const auto half = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(args.seconds / 2));
    const Segment base = workload->Measure(Clock::now() + half);
    tally.Merge(base.tally);
    // Zero the registry for the traced part, but keep the one gauge that
    // tracks live state: caches that stay resident (service, dynamic)
    // still hold their bytes.
    metrics::Gauge* resident = metrics::MetricsRegistry::Global().GetGauge(
        "db_cache.resident_bytes", "bytes");
    const double resident_before = resident->Value();
    metrics::MetricsRegistry::Global().ResetValues();
    resident->Set(resident_before);
    metrics::SetTracingEnabled(true);
    recorder.SetEnabled(true);
    ResidentSampler sampler;
    seg = workload->Measure(Clock::now() + half);
    const double resident_peak = sampler.Stop();
    recorder.SetEnabled(false);
    metrics::SetTracingEnabled(false);
    tally.Merge(seg.tally);

    const metrics::MetricsSnapshot snap =
        metrics::MetricsRegistry::Global().Snapshot();
    const double ops = static_cast<double>(seg.op_seconds.size());
    AddRegistryMetrics(snap, ops, sheet);
    workload->AddLayerMetrics(seg, sheet);
    workload->AddTransportMetrics(ops, sheet);
    sheet.Set("db_cache.resident_bytes", resident_peak);
    const Percentile traced = OpPercentile(seg, 0.5);
    const Percentile untraced = OpPercentile(base, 0.5);
    sheet.Set("trace.traced_op_ms", traced.value * 1e3, traced.samples);
    sheet.Set("trace.untraced_op_ms", untraced.value * 1e3, untraced.samples);
    sheet.Set("trace.overhead", Ratio(traced.value, untraced.value));
    const double self_ms =
        LayerSelfMs(snap) + sheet.Get("plan_search.ms") * ops;
    const double thread_wall_ms =
        workload->busy_threads() * seg.wall_seconds * 1e3;
    sheet.Set("trace.layer_self_ms", self_ms);
    sheet.Set("trace.thread_wall_ms", thread_wall_ms);
    sheet.Set("trace.coverage", Ratio(self_ms, thread_wall_ms));
  }

  const uint64_t finish_failures = workload->Finish();
  const double peak_rss =
      PeakRssMb("self") + workload->ChildPeakRssMb();
  const uint64_t attempted = tally.attempted();
  const uint64_t failed = tally.failed() + teardown_failures + finish_failures;

  if (!args.trace) {
    sheet.Set("setup_s", NearestRank(setups, 0.5));
    const Percentile p50 = OpPercentile(seg, 0.5);
    sheet.Set("op_p50_ms", p50.value * 1e3, p50.samples);
    sheet.Set("ops_per_s", seg.op_seconds.size() / seg.wall_seconds,
              seg.op_seconds.size());
    sheet.Set("peak_rss_mb", peak_rss);
    PrintSheet("end-to-end (untraced):", sheet);
    PrintNamedMetrics(*workload, seg,
                      Ratio(static_cast<double>(failed),
                            static_cast<double>(attempted)));
  } else {
    PrintSheet("per-layer (traced):", sheet);
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/" + args.workload +
                               "-seed" + std::to_string(args.seed) +
                               ".spans.json";
      if (recorder.WriteJson(path)) {
        std::printf("spans: %zu written to %s (%zu dropped)\n",
                    recorder.size(), path.c_str(), recorder.dropped());
      } else {
        std::fprintf(stderr, "could not write %s\n", path.c_str());
      }
    }
  }

  const bool correct = failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : sheet.all()) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(name) + ": {\"value\": " + Number(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace benu;
  perfbench::Args args;
  args.workload = flags::Value(argc, argv, "--workload", "");
  args.seed = static_cast<uint64_t>(
      flags::Int64Value(argc, argv, "--seed",
                        static_cast<long long>(perfbench::kDefaultSeed)));
  args.seconds = flags::DoubleValue(argc, argv, "--seconds", 10);
  args.trace = flags::BoolValue(argc, argv, "--trace", false);
  args.trace_dir = flags::Value(argc, argv, "--trace-dir", "");
  args.git_commit = flags::Value(argc, argv, "--git-commit", "unknown");
  args.source_sha = flags::Value(argc, argv, "--source-sha", "unknown");
  if (args.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  SetLogLevel(LogLevel::kWarning);
  // Spawned benu_kv_server children are killed and reaped on every exit
  // path: explicitly by the workload, by this handler on exit(), and by
  // the kernel (PR_SET_PDEATHSIG) if the process dies abruptly — run.py
  // kills the process group of a run that overruns its budget.
  std::atexit(flags::CleanupSpawnedAtExit);
  return perfbench::Run(args);
}
