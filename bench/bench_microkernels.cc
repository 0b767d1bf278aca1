// Microbenchmarks (google-benchmark) of the building blocks underneath
// the table/figure harnesses: set intersection kernels, the DB cache hit
// and miss paths, the triangle cache, plan generation, and one full local
// search task. Useful for regression-tracking the executor's inner loops.
//
// Before the google-benchmark registrations run, main() executes the
// intersection-kernel suite (scalar merge/gallop vs AVX2 vs fused-filter,
// across size ratios) and writes the results to BENCH_kernels.json in the
// working directory, so successive PRs can track the kernel-layer perf
// trajectory mechanically.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/executor.h"
#include "graph/adj_codec.h"
#include "graph/generators.h"
#include "graph/patterns.h"
#include "graph/simd_intersect.h"
#include "plan/optimizer.h"
#include "plan/plan_generator.h"
#include "plan/plan_search.h"
#include "plan/symmetry_breaking.h"
#include "storage/db_cache.h"

namespace benu {
namespace {

VertexSet MakeArithmetic(size_t n, size_t stride, VertexId offset) {
  VertexSet s;
  s.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<VertexId>(offset + i * stride));
  }
  return s;
}

void BM_IntersectBalanced(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  VertexSet a = MakeArithmetic(n, 2, 0);
  VertexSet b = MakeArithmetic(n, 3, 0);
  VertexSet out;
  for (auto _ : state) {
    Intersect(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * n));
}
BENCHMARK(BM_IntersectBalanced)->Arg(64)->Arg(1024)->Arg(16384);

void BM_IntersectSkewed(benchmark::State& state) {
  // Small probe against a large set: exercises the galloping kernel.
  VertexSet small = MakeArithmetic(16, 977, 3);
  VertexSet large = MakeArithmetic(static_cast<size_t>(state.range(0)), 1, 0);
  VertexSet out;
  for (auto _ : state) {
    Intersect(small, large, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_IntersectSkewed)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_DbCacheHit(benchmark::State& state) {
  Graph g = std::move(GenerateBarabasiAlbert(10000, 8, 1)).value();
  DistributedKvStore store(g, 16);
  DbCache cache(&store, 1u << 30);
  cache.GetAdjacency(42);
  // The executor's shape: one pinned reader, borrowed hits.
  DbCache::Reader reader(&cache);
  reader.Pin();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get(42).borrowed);
  }
  reader.Unpin();
}
BENCHMARK(BM_DbCacheHit);

void BM_DbCacheMiss(benchmark::State& state) {
  Graph g = std::move(GenerateBarabasiAlbert(100000, 4, 2)).value();
  DistributedKvStore store(g, 16);
  DbCache cache(&store, 0);  // never retains: always the miss path
  VertexId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.GetAdjacency(v));
    v = (v + 1) % g.NumVertices();
  }
}
BENCHMARK(BM_DbCacheMiss);

void BM_PlanSearch(benchmark::State& state) {
  Graph pattern = std::move(GetPattern("q" + std::to_string(state.range(0))))
                      .value();
  const DataGraphStats stats{4.8e6, 4.3e7};
  for (auto _ : state) {
    auto result = GenerateBestPlan(pattern, stats);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_PlanSearch)->Arg(1)->Arg(4)->Arg(7)->Arg(9);

void BM_LocalSearchTask(benchmark::State& state) {
  Graph data = std::move(GenerateBarabasiAlbert(20000, 8, 3))
                   .value()
                   .RelabelByDegree();
  Graph pattern = std::move(GetPattern("q4")).value();
  auto plan = GenerateBestPlan(pattern, DataGraphStats::FromGraph(data));
  DirectAdjacencyProvider provider(&data);
  TriangleCache tcache;
  auto executor = PlanExecutor::Create(&plan->plan, &provider, &tcache);
  CountingConsumer consumer(plan->plan);
  VertexId v = data.NumVertices() - 1;  // hottest (highest-degree) tasks
  for (auto _ : state) {
    (*executor)->RunTask(SearchTask{v, 0, 1}, &consumer);
    v = (v == 0) ? static_cast<VertexId>(data.NumVertices() - 1) : v - 1;
  }
  state.SetLabel("matches/iter varies by start vertex");
}
BENCHMARK(BM_LocalSearchTask);

// ---------------------------------------------------------------------
// Intersection-kernel suite: hand-rolled (not google-benchmark) so one
// run emits a single machine-readable JSON file with the scalar-vs-SIMD
// speedups, independent of benchmark CLI flags.

struct KernelResult {
  std::string test_case;
  std::string kernel;
  size_t small_size = 0;
  size_t large_size = 0;
  double ns_per_call = 0;
  double speedup_vs_scalar = 1.0;
};

VertexSet RandomSorted(Rng* rng, size_t size, uint64_t universe) {
  VertexSet s;
  s.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    s.push_back(static_cast<VertexId>(rng->NextBounded(universe)));
  }
  std::sort(s.begin(), s.end());
  s.erase(std::unique(s.begin(), s.end()), s.end());
  return s;
}

// Best-of-3 nanoseconds per call of `fn` (called `iters` times per rep).
constexpr int kTimeReps = 3;

template <typename Fn>
double TimeNs(size_t iters, Fn&& fn) {
  double best = 1e18;
  for (int rep = 0; rep < kTimeReps; ++rep) {
    Stopwatch watch;
    for (size_t i = 0; i < iters; ++i) fn();
    best = std::min(best, watch.ElapsedSeconds() * 1e9 /
                              static_cast<double>(iters));
  }
  return best;
}

// Delta+varint codec suite: encode / decode throughput over realistic
// (degree-relabeled BA) adjacency sets, and the fused encoded-operand
// intersect against the decode-then-intersect fallback it replaces.
void RunCodecSuite(std::vector<bench::BenchRecord>* records) {
  const bool simd_at_start = simd::SimdEnabled();
  Graph g = std::move(GenerateBarabasiAlbert(
                          bench::SmokeScale() ? 2000 : 20000, 8, 11))
                .value()
                .RelabelByDegree();
  const size_t n = g.NumVertices();

  // Pre-encode every adjacency set once (also the decode-bench input).
  std::vector<codec::EncodedSet> encoded(n);
  size_t raw_bytes = 0, encoded_bytes = 0;
  for (VertexId v = 0; v < n; ++v) {
    codec::Encode(g.Adjacency(v), &encoded[v]);
    raw_bytes += encoded[v].raw_bytes();
    encoded_bytes += encoded[v].bytes.size();
  }
  const double ratio = encoded_bytes > 0
                           ? static_cast<double>(raw_bytes) / encoded_bytes
                           : 1.0;
  std::printf("Adjacency codec (%zu sets, %.2fx compression)\n", n, ratio);
  std::printf("%-28s %12s %10s %10s\n", "case", "ns/sweep", "GB/s",
              "speedup");

  const size_t iters = bench::SmokeScale() ? 8 : 64;
  auto emit = [&](const std::string& name, double ns, double gbps,
                  double speedup) {
    std::printf("%-28s %12.0f %10.2f %9.2fx\n", name.c_str(), ns, gbps,
                speedup);
    bench::BenchRecord rec;
    rec.name = "codec/" + name;
    rec.params = {{"kernel_family", simd::ActiveKernelName()}};
    rec.repetitions = kTimeReps;
    rec.seconds = ns * 1e-9;
    rec.counters = {{"gb_per_s", gbps},
                    {"speedup", speedup},
                    {"compression_ratio", ratio}};
    records->push_back(std::move(rec));
  };

  // Encode: one full-graph sweep per call, GB/s over the raw payload.
  {
    codec::EncodedSet scratch;
    const double ns = TimeNs(iters, [&] {
      for (VertexId v = 0; v < n; ++v) codec::Encode(g.Adjacency(v), &scratch);
    });
    emit("encode", ns, static_cast<double>(raw_bytes) / ns, 1.0);
  }

  // Decode, scalar vs dispatched-SIMD, GB/s over the decoded payload.
  double decode_scalar_ns = 0;
  for (bool use_simd : {false, true}) {
    const bool effective = simd::SetSimdEnabled(use_simd);
    if (use_simd && !effective) continue;
    VertexSet out;
    const double ns = TimeNs(iters, [&] {
      for (VertexId v = 0; v < n; ++v) codec::DecodeAll(encoded[v], &out);
    });
    if (!use_simd) decode_scalar_ns = ns;
    emit(std::string("decode/") + (use_simd ? "simd" : "scalar"), ns,
         static_cast<double>(raw_bytes) / ns,
         decode_scalar_ns > 0 ? decode_scalar_ns / ns : 1.0);
  }

  // Large-set regime (a hub adjacency on a real data graph): dense
  // clustered ids whose deltas are 1-2 varint bytes — where the block
  // decoder and the fused kernels operate. The probe is a typical
  // already-decoded operand two orders of magnitude smaller.
  Rng rng(7);
  const size_t big_n = bench::SmokeScale() ? 16384 : 262144;
  const VertexSet big = RandomSorted(&rng, big_n, 4 * big_n);
  const VertexSet probe = RandomSorted(&rng, big_n / 64, 4 * big_n);
  codec::EncodedSet big_enc;
  codec::Encode(big, &big_enc);
  const double big_bytes = static_cast<double>(big.size()) * sizeof(VertexId);
  const size_t big_iters = bench::SmokeScale() ? 64 : 256;
  double big_decode_scalar_ns = 0;
  for (bool use_simd : {false, true}) {
    const bool effective = simd::SetSimdEnabled(use_simd);
    if (use_simd && !effective) continue;
    const char* k = use_simd ? "simd" : "scalar";
    VertexSet out;
    const double ns =
        TimeNs(big_iters, [&] { codec::DecodeAll(big_enc, &out); });
    if (!use_simd) big_decode_scalar_ns = ns;
    emit(std::string("decode_hub/") + k, ns, big_bytes / ns,
         big_decode_scalar_ns > 0 ? big_decode_scalar_ns / ns : 1.0);
  }
  // Fused encoded-intersect (streams the encoded hub set, probes the
  // decoded operand) vs the fallback it replaces: materialize the hub
  // set, then run the plain intersect kernel.
  for (bool use_simd : {false, true}) {
    const bool effective = simd::SetSimdEnabled(use_simd);
    if (use_simd && !effective) continue;
    const char* k = use_simd ? "simd" : "scalar";
    VertexSet out, decoded;
    const double decode_then_ns = TimeNs(big_iters, [&] {
      codec::DecodeAll(big_enc, &decoded);
      Intersect(decoded, probe, &out);
    });
    const double fused_ns = TimeNs(big_iters, [&] {
      codec::IntersectEncoded(big_enc, probe, 0, kInvalidVertex, nullptr, 0,
                              &out);
    });
    emit(std::string("decode_then_intersect/") + k, decode_then_ns,
         big_bytes / decode_then_ns, 1.0);
    emit(std::string("fused_intersect/") + k, fused_ns, big_bytes / fused_ns,
         fused_ns > 0 ? decode_then_ns / fused_ns : 1.0);
  }
  simd::SetSimdEnabled(simd_at_start);
  std::printf("\n");
}

void RunKernelSuite(const char* json_path) {
  std::vector<bench::BenchRecord> codec_records;
  RunCodecSuite(&codec_records);

  const bool simd_at_start = simd::SimdEnabled();
  std::vector<KernelResult> results;
  Rng rng(42);
  // Size ratios from balanced to beyond the galloping threshold (32); the
  // dispatcher picks merge/SIMD below it and galloping above it.
  const size_t kSmall = bench::SmokeScale() ? 256 : 4096;
  const size_t ratios[] = {1, 4, 16, 64, 256};
  std::printf("Intersection kernels (CPU kernel family: %s)\n",
              simd::ActiveKernelName());
  std::printf("%-28s %10s %10s %12s %10s\n", "case", "|small|", "|large|",
              "ns/call", "speedup");
  for (size_t ratio : ratios) {
    const uint64_t universe = 2 * kSmall * ratio;  // ~50% hit density
    const VertexSet a = RandomSorted(&rng, kSmall, universe);
    const VertexSet b = RandomSorted(&rng, kSmall * ratio, universe);
    const size_t iters =
        (ratio == 1 ? 16384u : 4096u) / (bench::SmokeScale() ? 64 : 1);
    VertexSet out;
    const VertexId excludes[] = {a.empty() ? 0 : a[a.size() / 2]};
    const VertexId lo = static_cast<VertexId>(universe / 16);
    const VertexId hi = static_cast<VertexId>(universe - universe / 16);

    struct Variant {
      const char* name;
      bool simd;
      bool fused;
    };
    const Variant variants[] = {{"intersect/scalar", false, false},
                                {"intersect/simd", true, false},
                                {"intersect_fused/scalar", false, true},
                                {"intersect_fused/simd", true, true}};
    double scalar_ns = 0;
    double scalar_fused_ns = 0;
    for (const Variant& v : variants) {
      const bool effective = simd::SetSimdEnabled(v.simd);
      if (v.simd && !effective) continue;  // no AVX2 on this machine
      const double ns = TimeNs(iters, [&] {
        if (v.fused) {
          IntersectExcluding(ClampView(a, lo, hi), b, excludes, 1, &out);
        } else {
          Intersect(a, b, &out);
        }
      });
      if (!v.simd && !v.fused) scalar_ns = ns;
      if (!v.simd && v.fused) scalar_fused_ns = ns;
      KernelResult r;
      r.test_case = "ratio_" + std::to_string(ratio) + "/" + v.name;
      r.kernel = v.simd ? "avx2" : "scalar";
      r.small_size = a.size();
      r.large_size = b.size();
      r.ns_per_call = ns;
      const double base = v.fused ? scalar_fused_ns : scalar_ns;
      r.speedup_vs_scalar = base > 0 ? base / ns : 1.0;
      std::printf("%-28s %10zu %10zu %12.1f %9.2fx\n", r.test_case.c_str(),
                  r.small_size, r.large_size, r.ns_per_call,
                  r.speedup_vs_scalar);
      results.push_back(std::move(r));
    }

    // IntersectSize, both kernels, unlimited.
    double size_scalar_ns = 0;
    for (bool use_simd : {false, true}) {
      const bool effective = simd::SetSimdEnabled(use_simd);
      if (use_simd && !effective) continue;
      size_t sink = 0;
      const double ns = TimeNs(iters, [&] { sink += IntersectSize(a, b); });
      benchmark::DoNotOptimize(sink);
      if (!use_simd) size_scalar_ns = ns;
      KernelResult r;
      r.test_case = "ratio_" + std::to_string(ratio) + "/intersect_size/" +
                    (use_simd ? "simd" : "scalar");
      r.kernel = use_simd ? "avx2" : "scalar";
      r.small_size = a.size();
      r.large_size = b.size();
      r.ns_per_call = ns;
      r.speedup_vs_scalar =
          size_scalar_ns > 0 ? size_scalar_ns / ns : 1.0;
      std::printf("%-28s %10zu %10zu %12.1f %9.2fx\n", r.test_case.c_str(),
                  r.small_size, r.large_size, r.ns_per_call,
                  r.speedup_vs_scalar);
      results.push_back(std::move(r));
    }
  }
  simd::SetSimdEnabled(simd_at_start);

  std::vector<bench::BenchRecord> records;
  records.reserve(results.size());
  for (const KernelResult& r : results) {
    bench::BenchRecord rec;
    rec.name = r.test_case;
    rec.params = {{"kernel", r.kernel},
                  {"kernel_family", simd::ActiveKernelName()}};
    rec.repetitions = kTimeReps;
    rec.seconds = r.ns_per_call * 1e-9;
    rec.counters = {{"small", static_cast<double>(r.small_size)},
                    {"large", static_cast<double>(r.large_size)},
                    {"ns_per_call", r.ns_per_call},
                    {"speedup_vs_scalar", r.speedup_vs_scalar}};
    records.push_back(std::move(rec));
  }
  records.insert(records.end(),
                 std::make_move_iterator(codec_records.begin()),
                 std::make_move_iterator(codec_records.end()));
  bench::WriteBenchJson(json_path, "kernels", records);
  std::printf("\n");
}

}  // namespace
}  // namespace benu

int main(int argc, char** argv) {
  benu::RunKernelSuite("BENCH_kernels.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
