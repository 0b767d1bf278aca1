#ifndef BENU_BENCH_BENCH_UTIL_H_
#define BENU_BENCH_BENCH_UTIL_H_

// Shared helpers for the table/figure reproduction harnesses. Each bench
// binary prints the rows/series of one table or figure from the paper
// (see DESIGN.md §5 and EXPERIMENTS.md for the mapping and results).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "distributed/benu_driver.h"
#include "graph/generators.h"
#include "graph/patterns.h"

namespace benu::bench {

/// True when the harness should also run the largest stand-in datasets
/// (uk-sim, fs-sim) / deepest sweeps. Off by default so the whole bench
/// suite completes quickly on one machine; enable with BENU_BENCH_FULL=1.
inline bool FullScale() {
  const char* env = std::getenv("BENU_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

/// True when the harness runs as a CI smoke check (BENU_BENCH_SMOKE=1):
/// every workload shrinks to a few seconds so the harness plumbing —
/// argument handling, sweeps, JSON emission, shape CHECKs — is exercised
/// on every push without the measurements meaning anything. Takes
/// precedence over FullScale().
inline bool SmokeScale() {
  const char* env = std::getenv("BENU_BENCH_SMOKE");
  return env != nullptr && env[0] == '1';
}

/// Workload-size picker honouring the scale env toggles.
inline size_t SizeFor(size_t full, size_t normal, size_t smoke) {
  if (SmokeScale()) return smoke;
  return FullScale() ? full : normal;
}

/// The paper's cluster: 16 workers × 24 threads, 1 Gbps, τ = 500,
/// 30 GB cache per worker (we scale the cache to the stand-in graphs),
/// and the paper's synchronous DBQ: one HBase round trip per cache miss.
/// The virtual-time benches built on it report that model, so they pin
/// prefetch_budget = 0 rather than inherit the batched lookahead (whose
/// virtual cost is one latency per partition per batch, not TCP's one
/// pipelined write per server).
inline ClusterConfig PaperCluster() {
  ClusterConfig config;
  config.num_workers = 16;
  config.threads_per_worker = 24;
  config.db_cache_bytes = 256u << 20;
  config.task_split_threshold = 500;
  config.db_query_latency_us = 100.0;
  config.network_bytes_per_us = 125.0;  // 1 Gbps
  config.prefetch_budget = 0;
  return config;
}

inline Graph LoadDataset(const std::string& name) {
  auto g = GenerateStandInDataset(name);
  BENU_CHECK(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

inline Graph LoadPattern(const std::string& name) {
  auto p = GetPattern(name);
  BENU_CHECK(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

/// Virtual cluster time of a BFS-style baseline measured in-process:
/// single-threaded compute spread perfectly over the cluster's p × w
/// threads, plus the shuffled bytes over the cluster's aggregate
/// bisection bandwidth (p × per-machine bandwidth). Deliberately
/// generous to the baseline (perfect parallelism, no stragglers), so a
/// BENU win under this model is conservative.
/// Aggregate disk bandwidth per machine for materialized MapReduce
/// shuffles (the paper's CBF runs on HDD RAID0), bytes per second.
inline constexpr double kDiskBytesPerSecond = 200e6;

inline double BaselineVirtualSeconds(double cpu_seconds, Count shuffled_bytes,
                                     const ClusterConfig& config,
                                     bool disk_materialized = false) {
  const double threads = static_cast<double>(config.num_workers) *
                         static_cast<double>(config.threads_per_worker);
  const double aggregate_bytes_per_second =
      static_cast<double>(config.num_workers) *
      config.network_bytes_per_us * 1e6;
  double seconds =
      cpu_seconds / threads +
      static_cast<double>(shuffled_bytes) / aggregate_bytes_per_second;
  if (disk_materialized) {
    // Each MapReduce round writes the shuffle to disk on the map side and
    // reads it back on the reduce side.
    seconds += 2.0 * static_cast<double>(shuffled_bytes) /
               (static_cast<double>(config.num_workers) * kDiskBytesPerSecond);
  }
  return seconds;
}

// ---------------------------------------------------------------------
// Machine-readable bench output. Every bench_* binary that records
// numbers emits one JSON file through WriteBenchJson, all with the same
// schema, so downstream tooling parses a single shape:
//
//   {"bench": "<suite>", "schema_version": 2,
//    "results": [{"name": "...", "params": {"k": "v", ...},
//                 "repetitions": N, "seconds": S,
//                 "counters": {"k": number, ...}}, ...],
//    "metrics": {"counters": {...}, "gauges": {...},
//                "histograms": {...}}}
//
// schema_version history (docs/benchmarks.md):
//   1 — implicit (field absent): bench/results/metrics shape above.
//   2 — field added; metrics snapshots may now contain per-backend
//       transport.* counters alongside the kv_store.* aggregates.
//
// The "metrics" object is a MetricsSnapshot of the process-wide registry
// at write time (docs/metrics.md documents every instrument), so every
// BENCH_*.json carries the cache/communication/compute breakdown of the
// run that produced it — diffing two bench JSONs answers "did it help?"
// without rerunning anything.

/// One result row: `name` identifies the case, `params` the swept
/// configuration (string-valued for uniformity), `seconds` the measured
/// time (best of `repetitions`), `counters` any further numeric outputs.
struct BenchRecord {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
  int repetitions = 1;
  double seconds = 0;
  std::vector<std::pair<std::string, double>> counters;
};

/// Version of the bench JSON schema written by WriteBenchJson. Bump it
/// (and the history note above + docs/benchmarks.md) whenever the
/// top-level shape or the meaning of existing fields changes.
inline constexpr int kBenchSchemaVersion = 2;

/// Writes `records` to `path` in the shared bench JSON schema. Keys and
/// string values must not need JSON escaping (bench code uses plain
/// identifiers).
inline void WriteBenchJson(const char* path, const std::string& bench_name,
                           const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"schema_version\": %d,\n"
               "  \"results\": [\n",
               bench_name.c_str(), kBenchSchemaVersion);
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"params\": {", r.name.c_str());
    for (size_t j = 0; j < r.params.size(); ++j) {
      std::fprintf(f, "%s\"%s\": \"%s\"", j == 0 ? "" : ", ",
                   r.params[j].first.c_str(), r.params[j].second.c_str());
    }
    std::fprintf(f, "}, \"repetitions\": %d, \"seconds\": %.9g, "
                 "\"counters\": {", r.repetitions, r.seconds);
    for (size_t j = 0; j < r.counters.size(); ++j) {
      std::fprintf(f, "%s\"%s\": %.9g", j == 0 ? "" : ", ",
                   r.counters[j].first.c_str(), r.counters[j].second);
    }
    std::fprintf(f, "}}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"metrics\": %s\n}\n",
               metrics::MetricsRegistry::Global().Snapshot().ToJson(2)
                   .c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

/// Formats a byte count like the paper's Table V cells ("26G", "512M").
inline std::string HumanBytes(Count bytes) {
  char buffer[32];
  const double b = static_cast<double>(bytes);
  if (b >= 1e9) {
    std::snprintf(buffer, sizeof(buffer), "%.1fG", b / 1e9);
  } else if (b >= 1e6) {
    std::snprintf(buffer, sizeof(buffer), "%.1fM", b / 1e6);
  } else if (b >= 1e3) {
    std::snprintf(buffer, sizeof(buffer), "%.1fK", b / 1e3);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.0fB", b);
  }
  return buffer;
}

inline std::string HumanCount(Count value) {
  char buffer[32];
  const double v = static_cast<double>(value);
  if (v >= 1e12) {
    std::snprintf(buffer, sizeof(buffer), "%.2fT", v / 1e12);
  } else if (v >= 1e9) {
    std::snprintf(buffer, sizeof(buffer), "%.2fB", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buffer, sizeof(buffer), "%.2fM", v / 1e6);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%llu",
                  static_cast<unsigned long long>(value));
  }
  return buffer;
}

}  // namespace benu::bench

#endif  // BENU_BENCH_BENCH_UTIL_H_
