// Adjacency-lookahead bench: how many store round trips the batched
// lookahead saves over the paper's per-miss DBQ.
//
// Sweeps store round-trip latency × fetch batch size on a DBQ-heavy
// workload (q5, the 5-cycle, whose candidate sets have no locality) with
// a deliberately small DB cache, and compares two modes:
//
//   sync        prefetch_budget = 0 — the paper's per-miss DBQ: every
//               cache miss is a synchronous store round trip on the
//               task's critical path;
//   inline      lookahead fetched in batched multi-gets on the
//               enumerating thread (the ClusterConfig default) —
//               batching amortizes round trips.
//
// Acceptance shape: at batch 16 the inline lookahead's store round trips
// (sync misses + batched round trips) must be fewer than sync's misses,
// and every configuration — including a forced-scalar (SIMD-disabled)
// run — must report the exact same match count. Results go to
// BENCH_pipeline.json.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/wire.h"
#include "graph/adj_codec.h"
#include "graph/simd_intersect.h"
#include "plan/plan_search.h"
#include "storage/kv_tcp_server.h"
#include "storage/tcp_transport.h"

int main() {
  using namespace benu;
  using namespace benu::bench;
  SetLogLevel(LogLevel::kWarning);

  Graph raw = LoadDataset(FullScale() ? "lj-sim" : "as-sim");
  Graph data = raw.RelabelByDegree();
  const size_t graph_bytes = data.AdjacencyBytes();
  // q5 even at smoke scale: the acceptance CHECK below needs the
  // DBQ-heavy workload (lighter patterns fetch too little for the
  // pipeline's extra traffic to pay for itself — see EXPERIMENTS.md).
  Graph pattern = LoadPattern("q5");
  auto plan = GenerateBestPlan(pattern, DataGraphStats::FromGraph(data),
                               {.optimize = true, .apply_vcbc = true});
  BENU_CHECK(plan.ok());

  // ~5% capacity: enough reuse for the cache to matter, small enough that
  // DBQ misses dominate and the store latency is on the critical path.
  const size_t cache_bytes =
      static_cast<size_t>(0.05 * static_cast<double>(graph_bytes));
  std::printf("Pipeline bench — q5 on %s (%zu vertices, %zu edges), "
              "cache %s (5%%)\n\n",
              FullScale() ? "lj-sim" : "as-sim", data.NumVertices(),
              data.NumEdges(), HumanBytes(cache_bytes).c_str());

  struct Mode {
    const char* name;
    size_t budget;
  };
  const Mode modes[] = {{"sync", 0}, {"inline", 64}};
  const std::vector<double> latencies =
      SmokeScale() ? std::vector<double>{100.0}
                   : std::vector<double>{0.0, 100.0, 1000.0};
  const std::vector<size_t> batch_sizes =
      SmokeScale() ? std::vector<size_t>{16} : std::vector<size_t>{1, 16};

  auto run = [&](double latency_us, size_t batch, const Mode& mode) {
    ClusterConfig config;
    config.num_workers = 4;
    config.threads_per_worker = 4;
    config.db_cache_bytes = cache_bytes;
    config.task_split_threshold = 32;
    config.db_query_latency_us = latency_us;
    config.prefetch_budget = mode.budget;
    config.prefetch_batch_size = batch;
    ClusterSimulator cluster(data, config);
    auto result = cluster.Run(plan->plan);
    BENU_CHECK(result.ok()) << result.status().ToString();
    return *std::move(result);
  };

  std::vector<BenchRecord> records;
  Count reference_matches = 0;
  bool have_reference = false;
  // Per-latency sync baseline for the improvement columns (batch size is
  // irrelevant to sync: it never issues a batched fetch).
  double sync_seconds = 0;
  Count sync_queries = 0;
  // Store round trips of a run: its synchronous misses plus its batched
  // lookahead round trips.
  const auto store_trips = [](const ClusterRunResult& r) {
    return r.db_queries + r.prefetch_round_trips;
  };

  std::printf("  %-24s %12s %10s %12s %12s %10s\n", "config", "virt-time",
              "vs-sync", "store-trips", "pf-trips", "pf-hits");
  for (double latency_us : latencies) {
    for (const Mode& mode : modes) {
      for (size_t batch : batch_sizes) {
        if (mode.budget == 0 && batch != batch_sizes.front()) {
          continue;  // sync ignores the batch size; run it once
        }
        ClusterRunResult result = run(latency_us, batch, mode);
        if (!have_reference) {
          reference_matches = result.total_matches;
          have_reference = true;
        }
        BENU_CHECK(result.total_matches == reference_matches)
            << mode.name << " lat=" << latency_us << " batch=" << batch
            << " changed the match count: " << result.total_matches
            << " vs " << reference_matches;
        if (mode.budget == 0) {
          sync_seconds = result.virtual_seconds;
          sync_queries = result.db_queries;
        }

        const std::string name = "lat" + std::to_string(
                                     static_cast<int>(latency_us)) +
                                 "us/batch" + std::to_string(batch) + "/" +
                                 mode.name;
        const double vs_sync =
            sync_seconds / std::max(1e-12, result.virtual_seconds);
        std::printf("  %-24s %11.3fs %9.2fx %12s %12s %10s\n",
                    name.c_str(), result.virtual_seconds, vs_sync,
                    HumanCount(store_trips(result)).c_str(),
                    HumanCount(result.prefetch_round_trips).c_str(),
                    HumanCount(result.prefetch_hits).c_str());
        if (mode.budget > 0 && batch == 16) {
          BENU_CHECK(store_trips(result) < sync_queries)
              << name << ": lookahead made " << store_trips(result)
              << " store round trips, not fewer than sync's "
              << sync_queries << " misses";
        }

        BenchRecord rec;
        rec.name = name;
        rec.params = {{"mode", mode.name},
                      {"latency_us", std::to_string(latency_us)},
                      {"batch", std::to_string(batch)},
                      {"budget", std::to_string(mode.budget)}};
        rec.seconds = result.virtual_seconds;
        rec.counters = {
            {"matches", static_cast<double>(result.total_matches)},
            {"speedup_vs_sync", vs_sync},
            {"prefetch_comm_seconds", result.prefetch_comm_seconds},
            {"store_round_trips", static_cast<double>(store_trips(result))},
            {"db_queries", static_cast<double>(result.db_queries)},
            {"prefetches_issued",
             static_cast<double>(result.prefetches_issued)},
            {"prefetch_hits", static_cast<double>(result.prefetch_hits)},
            {"prefetch_wasted", static_cast<double>(result.prefetch_wasted)},
            {"prefetch_round_trips",
             static_cast<double>(result.prefetch_round_trips)},
            {"prefetch_bytes", static_cast<double>(result.prefetch_bytes)},
            {"bytes_fetched", static_cast<double>(result.bytes_fetched)}};
        records.push_back(std::move(rec));
      }
    }
    std::printf("\n");
  }

  // Determinism check: the lookahead over the scalar kernels must still
  // reproduce the exact match count (prefetch changes *when* an
  // adjacency set arrives, never *what* the executor enumerates).
  {
    const bool simd_at_start = simd::SimdEnabled();
    simd::SetSimdEnabled(false);
    ClusterRunResult scalar =
        run(latencies.back(), batch_sizes.back(), modes[1]);
    simd::SetSimdEnabled(simd_at_start);
    BENU_CHECK(scalar.total_matches == reference_matches)
        << "forced-scalar inline run changed the match count: "
        << scalar.total_matches << " vs " << reference_matches;
    std::printf("forced-scalar inline run: %s matches — identical\n",
                HumanCount(scalar.total_matches).c_str());
  }

  // ------------------------------------------------------------------
  // Hybrid BFS/DFS sweep: ENU frontiers batched into governed region
  // buffers, one wide prefetch per batch, then drained DFS-style. Under
  // a finite memory budget the governor widens the prefetch budget and
  // the multi-get batches with the available headroom, converting
  // synchronous misses into batched lookahead traffic. Acceptance: the
  // match count is bit-identical to pure DFS, also with forced-scalar
  // kernels and with compression off.
  {
    const double latency = 1000.0;
    // Finite budget: cache residency settles at ~cache_bytes, so this
    // leaves the governor ~3/4 headroom in steady state — wide batches,
    // but still a real ceiling the frontier regions lease against.
    const size_t memory_budget = 4 * cache_bytes;
    auto run_hybrid = [&](ExpansionMode expansion, bool compress) {
      ClusterConfig config;
      config.num_workers = 4;
      config.threads_per_worker = 4;
      config.db_cache_bytes = cache_bytes;
      config.task_split_threshold = 32;
      config.db_query_latency_us = latency;
      config.prefetch_budget = 64;
      config.prefetch_batch_size = 16;
      config.compress_adjacency = compress;
      config.expansion = expansion;
      config.memory_budget_bytes = memory_budget;
      ClusterSimulator cluster(data, config);
      auto result = cluster.Run(plan->plan);
      BENU_CHECK(result.ok()) << result.status().ToString();
      BENU_CHECK(result->total_matches == reference_matches)
          << (expansion == ExpansionMode::kHybrid ? "hybrid" : "dfs")
          << (compress ? "" : " compression-off")
          << " changed the match count: " << result->total_matches << " vs "
          << reference_matches;
      return *std::move(result);
    };

    const ClusterRunResult dfs_run = run_hybrid(ExpansionMode::kDfs, true);
    const ClusterRunResult hybrid_run =
        run_hybrid(ExpansionMode::kHybrid, true);
    std::printf(
        "\nHybrid expansion (budget %s, 1ms latency):\n"
        "  %-24s %12s %12s %12s\n",
        HumanBytes(memory_budget).c_str(), "config", "virt-time",
        "pf-comm", "round-trips");
    const struct {
      const char* name;
      const ClusterRunResult* r;
    } hybrid_rows[] = {{"dfs", &dfs_run}, {"hybrid", &hybrid_run}};
    for (const auto& row : hybrid_rows) {
      std::printf("  %-24s %11.3fs %11.3fs %12s\n", row.name,
                  row.r->virtual_seconds, row.r->prefetch_comm_seconds,
                  HumanCount(row.r->prefetch_round_trips).c_str());
      BenchRecord rec;
      rec.name = std::string("hybrid/lat1000us/") + row.name;
      rec.params = {{"mode", row.name},
                    {"latency_us", "1000"},
                    {"memory_budget_bytes", std::to_string(memory_budget)}};
      rec.seconds = row.r->virtual_seconds;
      rec.counters = {
          {"matches", static_cast<double>(row.r->total_matches)},
          {"prefetch_comm_seconds", row.r->prefetch_comm_seconds},
          {"db_queries", static_cast<double>(row.r->db_queries)},
          {"prefetch_round_trips",
           static_cast<double>(row.r->prefetch_round_trips)},
          {"prefetch_hits", static_cast<double>(row.r->prefetch_hits)}};
      records.push_back(std::move(rec));
    }

    // Count invariance across the degraded hybrid modes: scalar
    // intersection kernels and raw (uncompressed) adjacency frames. The
    // batched lookahead visits candidates in exactly the DFS order, so
    // both are CHECKed bit-identical inside run_hybrid.
    const bool simd_at_start = simd::SimdEnabled();
    simd::SetSimdEnabled(false);
    run_hybrid(ExpansionMode::kHybrid, true);
    simd::SetSimdEnabled(simd_at_start);
    run_hybrid(ExpansionMode::kHybrid, false);
    std::printf(
        "forced-scalar and compression-off hybrid runs: %s matches — "
        "identical\n",
        HumanCount(reference_matches).c_str());
  }

  // ------------------------------------------------------------------
  // Compression sweep: the delta+varint adjacency codec on vs off over
  // the same q5 workload. The codec is wire only — payloads are decoded
  // where they enter the process and the DB cache holds and charges raw
  // sets either way — so both runs make the same store queries, and
  // compression must never change the match count (including a
  // forced-scalar run). At 1ms simulated store latency it must still
  // shrink the modeled communication term, round trips × latency plus
  // bytes over bandwidth, where the only difference is the bandwidth
  // term of the smaller encoded frames. The CHECK compares that term,
  // not the virtual makespan: the makespan also holds measured task CPU
  // time, whose run-to-run noise (up to 0.5 s of ~1163 s) is as large as
  // the codec's whole gain (~1 s).
  {
    auto run_codec = [&](double latency_us, bool compress) {
      ClusterConfig config;
      config.num_workers = 4;
      config.threads_per_worker = 4;
      config.db_cache_bytes = cache_bytes;
      config.task_split_threshold = 32;
      config.db_query_latency_us = latency_us;
      config.prefetch_budget = 64;
      config.prefetch_batch_size = 16;
      config.compress_adjacency = compress;
      ClusterSimulator cluster(data, config);
      auto result = cluster.Run(plan->plan);
      BENU_CHECK(result.ok()) << result.status().ToString();
      BENU_CHECK(result->total_matches == reference_matches)
          << (compress ? "compressed" : "raw") << " lat=" << latency_us
          << " changed the match count: " << result->total_matches << " vs "
          << reference_matches;
      return *std::move(result);
    };
    const auto total_bytes = [](const ClusterRunResult& r) {
      return r.bytes_fetched + r.prefetch_bytes;
    };
    const auto comm_seconds = [&](const ClusterRunResult& r,
                                  double latency_us) {
      return (static_cast<double>(store_trips(r)) * latency_us +
              static_cast<double>(total_bytes(r)) /
                  ClusterConfig().network_bytes_per_us) *
             1e-6;
    };

    const std::vector<double> codec_latencies =
        SmokeScale() ? std::vector<double>{1000.0}
                     : std::vector<double>{0.0, 1000.0};
    std::printf("\nCompression sweep (inline, batch 16, budget 64):\n");
    std::printf("  %-26s %12s %10s %12s %10s %12s\n", "config", "virt-time",
                "vs-raw", "bytes", "ratio", "db-queries");
    for (double latency_us : codec_latencies) {
      const ClusterRunResult raw_run = run_codec(latency_us, false);
      const ClusterRunResult comp_run = run_codec(latency_us, true);
      const double ratio =
          static_cast<double>(total_bytes(raw_run)) /
          std::max(1.0, static_cast<double>(total_bytes(comp_run)));
      const double vs_raw = raw_run.virtual_seconds /
                            std::max(1e-12, comp_run.virtual_seconds);
      const struct {
        const char* name;
        const ClusterRunResult* r;
        double vs;
        double bytes_ratio;
      } rows[] = {{"raw", &raw_run, 1.0, 1.0},
                  {"compressed", &comp_run, vs_raw, ratio}};
      for (const auto& row : rows) {
        const std::string name =
            "codec/lat" + std::to_string(static_cast<int>(latency_us)) +
            "us/" + row.name;
        std::printf("  %-26s %11.3fs %9.2fx %12s %9.2fx %12s\n", name.c_str(),
                    row.r->virtual_seconds, row.vs,
                    HumanBytes(total_bytes(*row.r)).c_str(), row.bytes_ratio,
                    HumanCount(row.r->db_queries).c_str());
        BenchRecord rec;
        rec.name = name;
        rec.params = {{"mode", row.name},
                      {"latency_us", std::to_string(latency_us)}};
        rec.seconds = row.r->virtual_seconds;
        rec.counters = {
            {"matches", static_cast<double>(row.r->total_matches)},
            {"bytes_total", static_cast<double>(total_bytes(*row.r))},
            {"bytes_ratio_vs_raw", row.bytes_ratio},
            {"speedup_vs_raw", row.vs},
            {"db_queries", static_cast<double>(row.r->db_queries)}};
        records.push_back(std::move(rec));
      }
      if (latency_us >= 1000.0 && codec::CompressionEnabled(true)) {
        const double comp_comm = comm_seconds(comp_run, latency_us);
        const double raw_comm = comm_seconds(raw_run, latency_us);
        BENU_CHECK(comp_comm < raw_comm)
            << "compression did not shrink the modeled communication at "
            << latency_us << "us: compressed " << comp_comm << "s vs raw "
            << raw_comm << "s";
        std::printf(
            "acceptance: compressed communication %.3fs < raw %.3fs at "
            "%.0fus latency (%.2fx fewer bytes; makespan %.2fx)\n",
            comp_comm, raw_comm, latency_us, ratio, vs_raw);
      }
    }

    // Match-count invariance on the scalar decode path: it must
    // enumerate exactly the same subgraphs from compressed payloads
    // (checked in run_codec).
    const bool simd_at_start = simd::SimdEnabled();
    simd::SetSimdEnabled(false);
    run_codec(codec_latencies.back(), true);
    simd::SetSimdEnabled(simd_at_start);
    std::printf("forced-scalar compressed run: %s matches — identical\n",
                HumanCount(reference_matches).c_str());
  }

  // ------------------------------------------------------------------
  // Wire-bytes acceptance: full q5 enumerations over the real backends
  // with the codec on vs off. transport.loopback.bytes and
  // transport.tcp.bytes (measured per transport instance) must drop by
  // at least the data graph's static ratio — every adjacency set's raw
  // reply frame over its encoded one — with identical match counts.
  // Access weighting favors the hubs, which encode best, so the static
  // ratio is a floor for the end-to-end one.
  //
  // Each worker's cache here holds the whole graph in every shard, so
  // nothing is evicted and each key crosses the wire at most once per
  // worker: the section's cost is bounded by the graph, not by how
  // often a small cache thrashes (CHECKed below).
  {
    constexpr size_t kWirePartitions = 8;
    constexpr size_t kWireServers = 2;
    constexpr size_t kWireWorkers = 2;
    constexpr size_t kCacheShards = 8;  // the DbCache default
    BenuOptions wire_options;
    wire_options.cluster.num_workers = kWireWorkers;
    wire_options.cluster.threads_per_worker = 2;
    wire_options.cluster.db_partitions = kWirePartitions;
    // Raw bytes plus a per-entry allowance above DbCache's overhead.
    wire_options.cluster.db_cache_bytes =
        kCacheShards * (graph_bytes + 64 * data.NumVertices());
    wire_options.cluster.task_split_threshold = 100;
    wire_options.cluster.prefetch_budget = 16;
    wire_options.relabel_by_degree = false;  // data is already relabeled

    Count static_raw = 0;
    Count static_comp = 0;
    for (VertexId v = 0; v < data.NumVertices(); ++v) {
      const VertexSetView adjacency = data.Adjacency(v);
      static_raw += wire::AdjacencyReplyBytes(adjacency.size);
      static_comp +=
          wire::EncodedAdjacencyReplyBytes(codec::EncodedBytes(adjacency));
    }
    const double static_ratio = static_cast<double>(static_raw) /
                                static_cast<double>(static_comp);

    auto bytes_over = [&](std::shared_ptr<Transport> transport) {
      wire_options.cluster.transport = std::move(transport);
      auto result = RunBenu(data, pattern, wire_options);
      BENU_CHECK(result.ok()) << result.status().ToString();
      BENU_CHECK(result->run.total_matches == reference_matches)
          << "wire run changed the match count: "
          << result->run.total_matches << " vs " << reference_matches;
      const Count keys_fetched =
          result->run.db_queries + result->run.prefetches_issued;
      BENU_CHECK(keys_fetched <= kWireWorkers * data.NumVertices())
          << "wire run fetched " << keys_fetched << " keys, more than "
          << kWireWorkers << " per vertex: its caches evicted";
      const Count bytes = wire_options.cluster.transport->stats().bytes.load(
          std::memory_order_relaxed);
      wire_options.cluster.transport.reset();
      return bytes;
    };

    const Count loop_raw = bytes_over(
        MakeLoopbackTransport(data, kWirePartitions, /*compress=*/false));
    const Count loop_comp = bytes_over(
        MakeLoopbackTransport(data, kWirePartitions));

    std::vector<std::unique_ptr<KvTcpServer>> servers;
    std::vector<ReplicaGroup> groups;
    for (size_t i = 0; i < kWireServers; ++i) {
      servers.push_back(std::make_unique<KvTcpServer>(
          &data, kWirePartitions, kWireServers, i));
      BENU_CHECK(servers.back()->Listen(0).ok());
      BENU_CHECK(servers.back()->Start().ok());
      groups.push_back({{{"127.0.0.1", servers.back()->port()}}});
    }
    TcpTransportOptions raw_tcp_options;
    raw_tcp_options.compress = false;
    auto tcp_raw = ConnectTcpTransport(groups, raw_tcp_options);
    BENU_CHECK(tcp_raw.ok()) << tcp_raw.status().ToString();
    const Count tcp_raw_bytes = bytes_over(*std::move(tcp_raw));
    auto tcp_comp = ConnectTcpTransport(groups);
    BENU_CHECK(tcp_comp.ok()) << tcp_comp.status().ToString();
    const Count tcp_comp_bytes = bytes_over(*std::move(tcp_comp));

    const struct {
      const char* backend;
      Count raw_bytes;
      Count comp_bytes;
    } wire_rows[] = {{"loopback", loop_raw, loop_comp},
                     {"tcp", tcp_raw_bytes, tcp_comp_bytes}};
    std::printf(
        "\nWire bytes, q5 end to end (codec off vs on; static ratio "
        "%.2fx):\n",
        static_ratio);
    for (const auto& row : wire_rows) {
      const double ratio =
          static_cast<double>(row.raw_bytes) /
          std::max(1.0, static_cast<double>(row.comp_bytes));
      std::printf("  %-10s raw %10s   compressed %10s   %.2fx smaller\n",
                  row.backend, HumanBytes(row.raw_bytes).c_str(),
                  HumanBytes(row.comp_bytes).c_str(), ratio);
      BENU_CHECK(ratio >= static_ratio || !codec::CompressionEnabled(true))
          << "transport." << row.backend << ".bytes dropped only " << ratio
          << "x with compression on (need >= the graph's static "
          << static_ratio << "x): raw=" << row.raw_bytes
          << " compressed=" << row.comp_bytes;
      BenchRecord rec;
      rec.name = std::string("codec/wire/") + row.backend;
      rec.params = {{"backend", row.backend}};
      rec.seconds = 0;
      rec.counters = {
          {"bytes_raw", static_cast<double>(row.raw_bytes)},
          {"bytes_compressed", static_cast<double>(row.comp_bytes)},
          {"bytes_ratio", ratio},
          {"static_ratio", static_ratio}};
      records.push_back(std::move(rec));
    }
  }

  // ------------------------------------------------------------------
  // Real-socket section: per-round-trip cost of the TCP transport
  // against the in-process loopback backend, with and without request
  // pipelining. The serial mode re-creates the pre-pipelining client
  // (one blocking round trip per partition, per batch); pipelining must
  // close at least 30% of the tcp-vs-loopback gap at batch 16.
  {
    constexpr size_t kTcpPartitions = 8;
    constexpr size_t kTcpServers = 4;
    const size_t batch = 16;
    const size_t iters = SizeFor(4000, 1000, 200);

    std::vector<std::unique_ptr<KvTcpServer>> servers;
    std::vector<ReplicaGroup> groups;
    for (size_t i = 0; i < kTcpServers; ++i) {
      servers.push_back(std::make_unique<KvTcpServer>(
          &data, kTcpPartitions, kTcpServers, i));
      BENU_CHECK(servers.back()->Listen(0).ok());
      BENU_CHECK(servers.back()->Start().ok());
      groups.push_back({{{"127.0.0.1", servers.back()->port()}}});
    }

    // One batch of 16 consecutive ids touches all 8 partitions (and all
    // 4 server channels), so pipelining has round trips to overlap.
    auto time_per_round_trip = [&](Transport& transport) {
      std::vector<VertexId> keys(batch);
      const VertexId span_limit =
          static_cast<VertexId>(data.NumVertices() - batch);
      for (size_t warm = 0; warm < 8; ++warm) {  // connections, caches
        for (size_t k = 0; k < batch; ++k) {
          keys[k] = static_cast<VertexId>(warm * batch + k);
        }
        BENU_CHECK(transport.FetchBatch(keys).ok());
      }
      const Count trips_before =
          transport.stats().round_trips.load(std::memory_order_relaxed);
      const auto start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < iters; ++i) {
        const VertexId base =
            static_cast<VertexId>((i * 97) % (span_limit + 1));
        for (size_t k = 0; k < batch; ++k) {
          keys[k] = base + static_cast<VertexId>(k);
        }
        BENU_CHECK(transport.FetchBatch(keys).ok());
      }
      const std::chrono::duration<double, std::micro> elapsed =
          std::chrono::steady_clock::now() - start;
      const Count trips =
          transport.stats().round_trips.load(std::memory_order_relaxed) -
          trips_before;
      BENU_CHECK(trips > 0);
      return elapsed.count() / static_cast<double>(trips);
    };

    auto loopback = MakeLoopbackTransport(data, kTcpPartitions);
    const double loop_us = time_per_round_trip(*loopback);

    TcpTransportOptions serial_options;
    serial_options.pipeline = false;
    auto tcp_serial = ConnectTcpTransport(groups, serial_options);
    BENU_CHECK(tcp_serial.ok()) << tcp_serial.status().ToString();
    const double serial_us = time_per_round_trip(**tcp_serial);

    auto tcp_piped = ConnectTcpTransport(groups);
    BENU_CHECK(tcp_piped.ok()) << tcp_piped.status().ToString();
    const double piped_us = time_per_round_trip(**tcp_piped);

    const double gap = serial_us - loop_us;
    const double gap_closed = (serial_us - piped_us) / std::max(1e-9, gap);
    std::printf(
        "\nTCP per-round-trip cost at batch %zu (%zu batches, %zu servers):\n"
        "  loopback %8.2fus   tcp-serial %8.2fus   tcp-pipelined %8.2fus\n"
        "  pipelining closes %.0f%% of the tcp-vs-loopback gap\n",
        batch, iters, kTcpServers, loop_us, serial_us, piped_us,
        100.0 * gap_closed);
    BENU_CHECK(gap > 0) << "tcp-serial not slower than loopback? serial="
                        << serial_us << "us loopback=" << loop_us << "us";
    BENU_CHECK(gap_closed >= 0.30)
        << "pipelining closed only " << 100.0 * gap_closed
        << "% of the tcp-vs-loopback round-trip gap (need >= 30%): loopback="
        << loop_us << "us serial=" << serial_us << "us pipelined=" << piped_us
        << "us";

    const struct {
      const char* name;
      double us;
    } tcp_rows[] = {{"loopback", loop_us},
                    {"tcp-serial", serial_us},
                    {"tcp-pipelined", piped_us}};
    for (const auto& row : tcp_rows) {
      BenchRecord rec;
      rec.name = std::string("tcp/batch16/") + row.name;
      rec.params = {{"mode", row.name},
                    {"batch", std::to_string(batch)},
                    {"servers", std::to_string(kTcpServers)}};
      rec.seconds = row.us * 1e-6;
      rec.counters = {{"us_per_round_trip", row.us},
                      {"gap_closed", gap_closed}};
      records.push_back(std::move(rec));
    }
  }

  // ------------------------------------------------------------------
  // Failover demo: a full enumeration over TCP with 2 replicas per
  // server, one replica stopped mid-run. The failover must be invisible:
  // the match count equals the simulated backend's, bit for bit.
  {
    auto demo_graph_or =
        GenerateFromSpec(SmokeScale() ? "ba:300,5,21" : "ba:2000,5,21");
    BENU_CHECK(demo_graph_or.ok());
    const Graph demo_graph = demo_graph_or->RelabelByDegree();
    Graph demo_pattern = LoadPattern("q5");
    constexpr size_t kDemoPartitions = 8;

    BenuOptions demo_options;
    demo_options.cluster.num_workers = 2;
    demo_options.cluster.threads_per_worker = 2;
    demo_options.cluster.db_partitions = kDemoPartitions;
    demo_options.cluster.db_cache_bytes = 4096;  // keep traffic flowing
    demo_options.cluster.task_split_threshold = 100;
    demo_options.cluster.prefetch_budget = 16;
    demo_options.relabel_by_degree = false;
    auto sim_run = RunBenu(demo_graph, demo_pattern, demo_options);
    BENU_CHECK(sim_run.ok()) << sim_run.status().ToString();

    std::vector<std::unique_ptr<KvTcpServer>> replicas;
    std::vector<ReplicaGroup> groups;
    constexpr size_t kDemoServers = 2;
    for (size_t i = 0; i < kDemoServers; ++i) {
      ReplicaGroup group;
      for (size_t r = 0; r < 2; ++r) {
        replicas.push_back(std::make_unique<KvTcpServer>(
            &demo_graph, kDemoPartitions, kDemoServers, i, r, 2));
        BENU_CHECK(replicas.back()->Listen(0).ok());
        BENU_CHECK(replicas.back()->Start().ok());
        group.replicas.push_back({"127.0.0.1", replicas.back()->port()});
      }
      groups.push_back(std::move(group));
    }
    auto tcp = ConnectTcpTransport(groups);
    BENU_CHECK(tcp.ok()) << tcp.status().ToString();

    // Stop group 0's first replica once the run has demonstrably started
    // issuing wire traffic.
    std::atomic<bool> done{false};
    std::thread killer([&] {
      while (!done.load(std::memory_order_relaxed)) {
        if ((*tcp)->stats().round_trips.load(std::memory_order_relaxed) >=
            20) {
          replicas.front()->Stop();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    demo_options.cluster.transport = *tcp;
    auto tcp_run = RunBenu(demo_graph, demo_pattern, demo_options);
    done.store(true, std::memory_order_relaxed);
    killer.join();
    BENU_CHECK(tcp_run.ok()) << tcp_run.status().ToString();
    BENU_CHECK(tcp_run->run.total_matches == sim_run->run.total_matches)
        << "failover changed the match count: " << tcp_run->run.total_matches
        << " vs " << sim_run->run.total_matches;

    auto faults = QueryTcpFaultStats(**tcp);
    BENU_CHECK(faults.ok());
    std::printf(
        "failover demo: one of 2 replicas stopped mid-run — %s matches, "
        "identical to sim (retries=%zu failovers=%zu reconnects=%zu)\n",
        HumanCount(tcp_run->run.total_matches).c_str(), faults->retries,
        faults->failovers, faults->reconnects);

    BenchRecord rec;
    rec.name = "tcp/failover-demo";
    rec.params = {{"replicas", "2"}, {"servers", "2"}};
    rec.seconds = 0;
    rec.counters = {
        {"matches", static_cast<double>(tcp_run->run.total_matches)},
        {"retries", static_cast<double>(faults->retries)},
        {"failovers", static_cast<double>(faults->failovers)},
        {"reconnects", static_cast<double>(faults->reconnects)}};
    records.push_back(std::move(rec));
    demo_options.cluster.transport.reset();
    tcp->reset();
  }

  WriteBenchJson("BENCH_pipeline.json", "pipeline", records);
  std::printf(
      "\nShape check: batch 16 needs fewer store round trips than batch 1\n"
      "(one round trip per partition per batch), and at batch 16 the\n"
      "lookahead makes fewer round trips than sync's per-miss DBQ.\n");
  return 0;
}
