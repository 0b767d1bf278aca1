// benu_driver: run one BENU enumeration end to end from the command
// line, over any transport backend:
//
//   --transport=sim       in-process simulated store (default)
//   --transport=loopback  in-process wire protocol (one server object
//                         per partition, every get framed and decoded)
//   --transport=tcp       real sockets; servers given via --endpoints=
//                         host:port,... or spawned as child processes
//                         with --spawn-servers=K
//
// The multi-process smoke test in CI is exactly:
//
//   benu_driver --graph=ba:200,5,21 --pattern=q5 --partitions=8 \
//       --spawn-servers=2 --compare-with-sim
//
// which forks two benu_kv_server processes, enumerates q5 over TCP
// against them, re-runs on the simulated backend and CHECKs that the
// match counts agree. --expect-matches=N CHECKs an absolute count.
// Prints "MATCHES <count>" on success.
//
// Fault-tolerance knobs:
//   --replicas=R          spawn R replicas per server index (R*K child
//                         processes); the client fails over between the
//                         replicas of a group when one dies
//   --kill-one-after-ms=N SIGKILL the first spawned server N ms into the
//                         enumeration (the fault-injection smoke test:
//                         with --replicas>=2 the run must still finish
//                         with the correct match count via failover)
//   --endpoints accepts the replica syntax "h:p|h:p,h:p" (',' separates
//   server indexes, '|' separates replicas of one index).
//
// Compression knobs:
//   --compress=0          send adjacency raw on the wire (servers, client
//                         transports, sim model); wire only: payloads
//                         are decoded on arrival either way
//   --driver-relabel=1    hand RunBenu the unrelabeled graph and let it
//                         relabel internally, validating against the
//                         transport's attested graph hash
//
// Memory-governed execution knobs:
//   --expansion=MODE      dfs (default) | hybrid. hybrid batches ENU
//                         frontiers into governed region buffers and
//                         issues wide prefetches
//   --memory-budget-mb=N  process-wide budget the memory governor holds
//                         cache residency + frontier regions under
//                         (0 = unbounded)
//   --prefetch-budget=N   base per-ENU lookahead budget in keys,
//                         fetched in batched multi-gets before the ENU
//                         descends (default: ClusterConfig's; 0 = one
//                         synchronous store query per cache miss); the
//                         governor widens it with headroom under
//                         --expansion=hybrid
//
// Spawned servers can never outlive the driver: children ask the kernel
// for SIGKILL on parent death (PR_SET_PDEATHSIG) and an atexit handler
// kills and reaps them on every normal exit path. Flag parsing and the
// spawn/cleanup machinery live in common/flags_util.h, shared with the
// other BENU binaries.

#include <csignal>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/flags_util.h"
#include "common/logging.h"
#include "distributed/benu_driver.h"
#include "graph/generators.h"
#include "graph/patterns.h"
#include "storage/tcp_transport.h"
#include "storage/transport.h"

namespace {

using namespace benu;

/// Governed-execution knobs shared by every RunOnce call of the driver.
struct ExecutionKnobs {
  ExpansionMode expansion = ExpansionMode::kDfs;
  size_t memory_budget_bytes = 0;
  size_t prefetch_budget = ClusterConfig{}.prefetch_budget;
};

Count RunOnce(const Graph& graph, const Graph& pattern,
              std::shared_ptr<Transport> transport, size_t partitions,
              size_t workers, size_t threads_per_worker, bool compress,
              bool relabel_in_driver, const ExecutionKnobs& knobs) {
  BenuOptions options;
  options.cluster.num_workers = workers;
  options.cluster.threads_per_worker = threads_per_worker;
  options.cluster.db_partitions = partitions;
  options.cluster.compress_adjacency = compress;
  options.cluster.expansion = knobs.expansion;
  options.cluster.memory_budget_bytes = knobs.memory_budget_bytes;
  options.cluster.prefetch_budget = knobs.prefetch_budget;
  options.cluster.transport = std::move(transport);
  // Default path: the driver relabels the data graph before building any
  // transport, so both sides of the wire already agree on vertex ids.
  // With --driver-relabel RunBenu relabels internally instead and
  // validates the labeling against the transport's attested graph hash.
  options.relabel_by_degree = relabel_in_driver;
  auto result = RunBenu(graph, pattern, options);
  BENU_CHECK(result.ok()) << result.status().ToString();
  return result->run.total_matches;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string graph_spec =
      flags::Value(argc, argv, "--graph", "ba:200,5,21");
  const std::string pattern_name =
      flags::Value(argc, argv, "--pattern", "q5");
  const size_t partitions = flags::SizeValue(argc, argv, "--partitions", 8);
  const size_t workers = flags::SizeValue(argc, argv, "--workers", 2);
  const size_t threads_per_worker =
      flags::SizeValue(argc, argv, "--threads-per-worker", 2);
  const size_t spawn_servers =
      flags::SizeValue(argc, argv, "--spawn-servers", 0);
  const size_t replicas =
      std::max<size_t>(1, flags::SizeValue(argc, argv, "--replicas", 1));
  const long long kill_one_after_ms =
      flags::Int64Value(argc, argv, "--kill-one-after-ms", -1);
  const std::string transport_name = flags::Value(
      argc, argv, "--transport", spawn_servers > 0 ? "tcp" : "sim");
  const std::string endpoints_spec =
      flags::Value(argc, argv, "--endpoints", "");
  const long long expect_matches =
      flags::Int64Value(argc, argv, "--expect-matches", -1);
  const bool compare_with_sim =
      flags::Has(argc, argv, "--compare-with-sim");
  // --compress=0 disables delta+varint adjacency on the wire: spawned
  // servers serve raw-only, client transports request raw frames and
  // the sim backend models raw frame sizes.
  const bool compress = flags::BoolValue(argc, argv, "--compress", true);
  // --driver-relabel=1 hands RunBenu the *un*relabeled graph with
  // relabel_by_degree on, exercising the graph-hash handshake against a
  // transport that serves the relabeled graph.
  const bool driver_relabel =
      flags::BoolValue(argc, argv, "--driver-relabel", false);
  ExecutionKnobs knobs;
  const std::string expansion_name =
      flags::Value(argc, argv, "--expansion", "dfs");
  if (expansion_name == "dfs") {
    knobs.expansion = ExpansionMode::kDfs;
  } else if (expansion_name == "hybrid") {
    knobs.expansion = ExpansionMode::kHybrid;
  } else {
    BENU_CHECK(false) << "unknown --expansion=" << expansion_name
                      << " (dfs|hybrid)";
  }
  knobs.memory_budget_bytes =
      flags::SizeValue(argc, argv, "--memory-budget-mb", 0) << 20;
  knobs.prefetch_budget = flags::SizeValue(argc, argv, "--prefetch-budget",
                                           knobs.prefetch_budget);

  auto graph_or = GenerateFromSpec(graph_spec);
  BENU_CHECK(graph_or.ok()) << "--graph=" << graph_spec << ": "
                            << graph_or.status().ToString();
  const Graph unrelabeled = *graph_or;
  const Graph graph = graph_or->RelabelByDegree();
  // The graph RunOnce enumerates over; transports always serve the
  // relabeled labeling (spawned servers pass --relabel=1).
  const Graph& enum_graph = driver_relabel ? unrelabeled : graph;
  auto pattern_or = GetPattern(pattern_name);
  BENU_CHECK(pattern_or.ok()) << "--pattern=" << pattern_name << ": "
                              << pattern_or.status().ToString();
  const Graph& pattern = *pattern_or;

  std::vector<flags::ServerProcess>& spawned = flags::SpawnedRegistry();
  std::atexit(flags::CleanupSpawnedAtExit);
  std::shared_ptr<Transport> transport;
  if (transport_name == "sim") {
    transport = nullptr;  // RunBenu builds the simulated store itself.
  } else if (transport_name == "loopback") {
    transport = MakeLoopbackTransport(graph, partitions, compress);
  } else if (transport_name == "tcp") {
    std::vector<ReplicaGroup> groups;
    if (spawn_servers > 0) {
      const std::string server_binary = flags::SelfDir() + "/benu_kv_server";
      for (size_t i = 0; i < spawn_servers; ++i) {
        ReplicaGroup group;
        for (size_t r = 0; r < replicas; ++r) {
          flags::KvServerSpawnOptions spawn;
          spawn.graph_spec = graph_spec;
          spawn.partitions = partitions;
          spawn.servers = spawn_servers;
          spawn.index = i;
          spawn.replica = r;
          spawn.replicas = replicas;
          spawn.compress = compress;
          spawned.push_back(flags::SpawnKvServer(server_binary, spawn));
          group.replicas.push_back({"127.0.0.1", spawned.back().port});
        }
        groups.push_back(std::move(group));
      }
    } else {
      auto parsed = ParseReplicaGroups(endpoints_spec);
      BENU_CHECK(parsed.ok()) << "--endpoints: "
                              << parsed.status().ToString();
      groups = *parsed;
    }
    TcpTransportOptions tcp_options;
    tcp_options.compress = compress;
    auto connected = ConnectTcpTransport(groups, tcp_options);
    BENU_CHECK(connected.ok()) << "connect: "
                               << connected.status().ToString();
    transport = *connected;
  } else {
    BENU_CHECK(false) << "unknown --transport=" << transport_name
                      << " (sim|loopback|tcp)";
  }

  // Fault injection: SIGKILL the first spawned server (group 0's first
  // replica — the one the client connected to) mid-enumeration. With
  // --replicas>=2 the transport must fail over and finish correctly.
  std::thread killer;
  if (kill_one_after_ms >= 0) {
    BENU_CHECK(!spawned.empty())
        << "--kill-one-after-ms requires --spawn-servers";
    killer = std::thread([kill_one_after_ms] {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kill_one_after_ms));
      flags::ServerProcess& victim = flags::SpawnedRegistry().front();
      if (victim.pid > 0) {
        std::fprintf(stderr, "fault-injection: SIGKILL server pid %d\n",
                     static_cast<int>(victim.pid));
        kill(victim.pid, SIGKILL);
      }
    });
  }

  const Count matches =
      RunOnce(enum_graph, pattern, transport, partitions, workers,
              threads_per_worker, compress, driver_relabel, knobs);
  if (killer.joinable()) killer.join();

  if (transport != nullptr) {
    const TransportStats& ts = transport->stats();
    std::fprintf(stderr,
                 "transport.%s: fetches=%llu batch_gets=%llu "
                 "round_trips=%llu bytes=%llu bytes_encoded=%llu\n",
                 transport->name(),
                 static_cast<unsigned long long>(ts.fetches.load()),
                 static_cast<unsigned long long>(ts.batch_gets.load()),
                 static_cast<unsigned long long>(ts.round_trips.load()),
                 static_cast<unsigned long long>(ts.bytes.load()),
                 static_cast<unsigned long long>(ts.bytes_encoded.load()));
    auto faults = QueryTcpFaultStats(*transport);
    if (faults.ok()) {
      std::fprintf(stderr,
                   "transport.tcp.faults: retries=%llu failovers=%llu "
                   "timeouts=%llu reconnects=%llu\n",
                   static_cast<unsigned long long>(faults->retries),
                   static_cast<unsigned long long>(faults->failovers),
                   static_cast<unsigned long long>(faults->timeouts),
                   static_cast<unsigned long long>(faults->reconnects));
    }
  }

  // Drop the TCP connections before killing the servers.
  transport.reset();
  flags::KillServers(spawned);

  if (compare_with_sim && transport_name != "sim") {
    const Count sim_matches =
        RunOnce(enum_graph, pattern, nullptr, partitions, workers,
                threads_per_worker, compress, driver_relabel, knobs);
    BENU_CHECK(matches == sim_matches)
        << transport_name << " found " << matches << " matches but sim found "
        << sim_matches;
    std::fprintf(stderr, "compare-with-sim: ok (%llu matches)\n",
                 static_cast<unsigned long long>(sim_matches));
  }
  if (expect_matches >= 0) {
    BENU_CHECK(matches == static_cast<Count>(expect_matches))
        << "expected " << expect_matches << " matches, found " << matches;
  }

  std::printf("MATCHES %llu\n", static_cast<unsigned long long>(matches));
  return 0;
}
