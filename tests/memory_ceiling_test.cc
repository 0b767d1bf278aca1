// Memory-ceiling stress test of the governed hybrid execution mode
// (no gtest: a forking harness with a custom main).
//
// clique5 on a dense Erdős–Rényi graph materializes ~8M partial
// embeddings across its ENU levels. The governed hybrid mode leases
// bounded frontier batches and pops them stack-style, so its footprint
// stays near the configured memory budget no matter how many embeddings
// exist.
//
// The harness runs three ways:
//
//   parent       plain DFS, no address-space cap — the reference count;
//   hybrid child RLIMIT_AS capped: must finish with the reference count
//                (graceful spill-to-DFS near the ceiling, never OOM);
//   probe child  same cap: allocates and touches kCapBytes and must die
//                with std::bad_alloc (exit 42) — proving the cap is real.
//
// Ungoverned hybrid (memory_budget_bytes = 0) is no OOM control: it too
// finishes under the cap, because its frontier is reclaimed stack-style
// whether or not a governor is present.
//
// Children are forked (the parent is single-threaded by then) and set
// their own RLIMIT_AS, so the test is self-contained; the CI
// memory-ceiling leg additionally wraps the whole binary in `ulimit -v`.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <new>
#include <vector>

#include "common/logging.h"
#include "distributed/benu_driver.h"
#include "graph/generators.h"
#include "graph/patterns.h"

namespace {

using namespace benu;

// Dense enough that Σ level-frontiers ≫ the cap, small enough that the
// two full enumerations stay test-sized: p ≈ 0.25, ~1.3M triangles,
// ~4M 4-cliques, ~2.5M 5-cliques.
constexpr size_t kVertices = 800;
constexpr size_t kEdges = 80000;
constexpr unsigned kSeed = 29;
/// Address-space cap for both children, bytes.
constexpr rlim_t kCapBytes = 128u << 20;
/// The distinguished exit code of a child that hit std::bad_alloc.
constexpr int kOomExit = 42;

BenuOptions Options(ExpansionMode expansion) {
  BenuOptions options;
  // Single worker, single thread: bad_alloc (if any) surfaces on the
  // enumerating thread itself, which also does the lookahead's fetching.
  options.cluster.num_workers = 1;
  options.cluster.threads_per_worker = 1;
  options.cluster.execution_threads = 1;
  options.cluster.max_runtime_threads = 1;
  options.cluster.db_cache_bytes = 4u << 20;
  options.cluster.prefetch_budget = 16;
  options.cluster.expansion = expansion;
  // The governed ceiling sits far below RLIMIT_AS: the hybrid mode must
  // plateau here.
  options.cluster.memory_budget_bytes = 24u << 20;
  // Keep every enumeration level materialized — VCBC would compress the
  // deepest (largest) frontier away.
  options.plan.apply_vcbc = false;
  return options;
}

Count Enumerate(const BenuOptions& options) {
  Graph data =
      std::move(GenerateErdosRenyi(kVertices, kEdges, kSeed)).value();
  Graph pattern = std::move(GetPattern("clique5")).value();
  auto result = RunBenu(data, pattern, options);
  BENU_CHECK(result.ok()) << result.status().ToString();
  return result->run.total_matches;
}

/// Runs `child` in a forked child under the address-space cap; returns
/// its exit code: 0 if it returned true, 1 if false, kOomExit on
/// std::bad_alloc.
int RunCapped(const std::function<bool()>& child) {
  const pid_t pid = fork();
  BENU_CHECK(pid >= 0) << "fork failed";
  if (pid == 0) {
    rlimit cap{};
    cap.rlim_cur = kCapBytes;
    cap.rlim_max = kCapBytes;
    if (setrlimit(RLIMIT_AS, &cap) != 0) _exit(3);
    try {
      _exit(child() ? 0 : 1);
    } catch (const std::bad_alloc&) {
      _exit(kOomExit);
    }
  }
  int status = 0;
  BENU_CHECK(waitpid(pid, &status, 0) == pid) << "waitpid failed";
  if (!WIFEXITED(status)) {
    std::fprintf(stderr, "capped child died abnormally (status %d)\n",
                 status);
    return -1;
  }
  return WEXITSTATUS(status);
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarning);

  // Reference: plain DFS, no cap.
  const Count reference = Enumerate(Options(ExpansionMode::kDfs));
  BENU_CHECK(reference > 0) << "degenerate workload: no 5-cliques";
  std::printf("reference (dfs, uncapped): %llu matches\n",
              static_cast<unsigned long long>(reference));

  const int hybrid_exit = RunCapped([reference] {
    return Enumerate(Options(ExpansionMode::kHybrid)) == reference;
  });
  BENU_CHECK(hybrid_exit == 0)
      << "hybrid run under the " << (kCapBytes >> 20)
      << "MB address-space cap exited " << hybrid_exit
      << " (0 = correct count; " << kOomExit
      << " = OOM — the governor failed to spill)";
  std::printf("hybrid under %lluMB cap: correct count, no OOM\n",
              static_cast<unsigned long long>(kCapBytes >> 20));

  const int probe_exit = RunCapped([] {
    std::vector<char> block(kCapBytes, 1);
    // Publish the block so the touched allocation cannot be elided.
    static char* volatile escape;
    escape = block.data();
    return escape[kCapBytes - 1] == 1;
  });
  BENU_CHECK(probe_exit == kOomExit)
      << "probe child allocated " << (kCapBytes >> 20)
      << "MB under the same cap and exited " << probe_exit
      << " instead of " << kOomExit
      << ": the cap did not bite, so the hybrid result above proves "
         "nothing";
  std::printf("probe under the same cap: std::bad_alloc, as intended\n");
  std::printf("memory ceiling test OK\n");
  return 0;
}
