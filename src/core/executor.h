#ifndef BENU_CORE_EXECUTOR_H_
#define BENU_CORE_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/types.h"
#include "core/match_consumer.h"
#include "core/region_buffer.h"
#include "graph/graph.h"
#include "graph/vertex_set.h"
#include "plan/instruction.h"
#include "storage/db_cache.h"
#include "storage/triangle_cache.h"

namespace benu {

class MemoryGovernor;

namespace metrics {
class Counter;
class Histogram;
}  // namespace metrics

/// How PlanExecutor expands an ENU instruction's candidate set.
enum class ExpansionMode {
  /// Pure per-candidate DFS descent (the seed/PR 3 behaviour): prefetch
  /// the candidate slice once (clamped to the static budget), then
  /// recurse candidate by candidate.
  kDfs,
  /// Memory-governed hybrid BFS/DFS: materialize candidate batches into
  /// a region-allocated frontier buffer under governor leases, issue one
  /// wide prefetch per batch, drain the batch DFS-style while the
  /// fetches land, and pop the region. Degrades to kDfs per candidate
  /// set when the governor denies the lease (near the memory ceiling).
  /// Match counts are bit-identical to kDfs: the drain visits the same
  /// candidates in the same order, so symmetry breaking and TRC
  /// semantics are untouched.
  kHybrid,
};

/// Source of adjacency sets for DBQ instructions. The production
/// implementation routes through the worker's DB cache to the distributed
/// KV store; tests and the shared-memory baselines use the direct
/// in-memory graph.
class AdjacencyProvider {
 public:
  /// A fetched adjacency set is either owned (`set` non-null) or
  /// borrowed (`set` null). Borrowed storage is the provider's graph
  /// (DirectAdjacencyProvider, valid for the provider's lifetime) or a
  /// DbCache entry (a cache hit, valid until the fetching thread's
  /// reader unpins at the end of its task).
  struct Fetch {
    /// Owns the set when the provider hands it over (cache misses and
    /// coalesced waits).
    std::shared_ptr<const VertexSet> set;
    /// The adjacency set itself.
    VertexSetView view;
    bool cache_hit = false;
    /// Miss served by piggybacking on another thread's in-flight store
    /// query (single-flight coalescing): the caller waited one round
    /// trip but issued no query of its own.
    bool coalesced = false;
    size_t bytes = 0;  ///< simulated network bytes (0 on a hit)
  };

  virtual ~AdjacencyProvider() = default;
  /// Must be called with the calling thread's reader (NewReader) pinned.
  virtual Fetch GetAdjacency(VertexId v) = 0;
  /// A reader for one thread of fetches that may borrow from a DbCache,
  /// or null for providers that never do. PlanExecutor holds one for its
  /// lifetime and pins it for the whole of every RunTask.
  virtual std::unique_ptr<DbCache::Reader> NewReader() { return nullptr; }
  /// Hints that GetAdjacency will soon be called for (a prefix of) the
  /// given keys; providers without a prefetch path ignore it. The
  /// executor issues this per ENU instruction whose enumerated vertex
  /// feeds a downstream DBQ, so the level-(i+1) misses are fetched in a
  /// few batched round trips instead of one each.
  virtual void Prefetch(const VertexId* /*keys*/, size_t /*count*/) {}
  /// Number of data vertices (for the V(G) pseudo-operand and task
  /// generation).
  virtual size_t NumVertices() const = 0;
};

/// Adjacency provider over an in-memory graph: every fetch is "local" and
/// zero-copy — the returned view aliases the graph's CSR arrays directly,
/// with no per-vertex materialization at construction or fetch time.
class DirectAdjacencyProvider : public AdjacencyProvider {
 public:
  /// `graph` must outlive the provider and every executor using it.
  explicit DirectAdjacencyProvider(const Graph* graph) : graph_(graph) {}

  Fetch GetAdjacency(VertexId v) override;
  size_t NumVertices() const override { return graph_->NumVertices(); }

 private:
  const Graph* graph_;
};

/// Adjacency provider through a worker's local DB cache (Fig. 2): a hit is
/// free; a miss performs one remote query against the distributed store.
/// `prefetch_budget` bounds the keys forwarded per Prefetch call to the
/// cache's batched lookahead; 0 disables prefetching entirely. With a
/// memory governor, the effective budget is the governor's dynamic
/// headroom-scaled value instead of the static knob. Keys clamped off by
/// the budget are counted in `executor.prefetch.dropped` — they surface
/// later as synchronous misses, so the drop is a visible signal, not a
/// silent truncation.
class CachedAdjacencyProvider : public AdjacencyProvider {
 public:
  /// `cache` (and `governor`, when given) must outlive the provider.
  explicit CachedAdjacencyProvider(DbCache* cache, size_t num_vertices,
                                   size_t prefetch_budget = 0,
                                   MemoryGovernor* governor = nullptr);

  /// A hit borrows the cache entry; misses own their reply.
  Fetch GetAdjacency(VertexId v) override;
  std::unique_ptr<DbCache::Reader> NewReader() override {
    return std::make_unique<DbCache::Reader>(cache_);
  }
  void Prefetch(const VertexId* keys, size_t count) override;
  size_t NumVertices() const override { return num_vertices_; }

 private:
  DbCache* cache_;
  size_t num_vertices_;
  size_t prefetch_budget_;
  MemoryGovernor* governor_;
  metrics::Counter* dropped_counter_;
};

/// One local search task (Algorithm 2 line 4): a backtracking search
/// rooted at `start`. Task splitting (§V-B) subdivides the candidate set
/// of the second pattern vertex into `num_subtasks` equal slices; this
/// task runs slice `subtask_index`.
struct SearchTask {
  VertexId start = 0;
  uint32_t subtask_index = 0;
  uint32_t num_subtasks = 1;
  /// Incremental (S-BENU) seeding: when set, the first ENU binds exactly
  /// this vertex (if present in its candidate set) instead of walking a
  /// candidate slice, so the task enumerates only matches that map the
  /// plan's first pattern edge to the data edge (start, seed_second) —
  /// the delta-edge anchoring of plan/incremental.h. Takes precedence
  /// over subtask slicing.
  VertexId seed_second = kInvalidVertex;
};

/// Per-task execution metrics.
struct TaskStats {
  Count res_executions = 0;   ///< RES firings (helves when compressed)
  Count matches = 0;          ///< expanded matches (filled by the driver)
  Count adjacency_requests = 0;
  Count cache_hits = 0;
  Count db_queries = 0;       ///< requests that reached the remote store
  Count coalesced_fetches = 0;  ///< misses served by a sibling's query
  Count bytes_fetched = 0;
  Count intersections = 0;    ///< compiled INT executions + TRC misses
  Count tcache_hits = 0;
  double wall_seconds = 0;
  /// CPU time of the executing thread; < 0 when the platform cannot
  /// measure it. The cluster's virtual-time model prefers this over
  /// wall_seconds so concurrent execution does not inflate task times.
  double cpu_seconds = -1;

  void Accumulate(const TaskStats& other);
};

/// The instruction list PlanExecutor runs for a plan: each filter-free,
/// multi-operand INT whose target T is read only by one INT X, with no
/// ENU in between, merges into X as `X := Intersect(ops(T) ∪ ops(X)∖{T})
/// | filters(X)`, at T's position if X's other operands are defined there,
/// else at X's. TRC results are never folded.
std::vector<Instruction> FoldSingleUseTemporaries(
    std::vector<Instruction> instructions);

/// Interprets a BENU execution plan over the data graph: the distributed
/// framework's inner loop (Algorithm 2 line 8). One executor instance is
/// owned by one working thread; it keeps per-instruction scratch buffers
/// that are reused across tasks.
class PlanExecutor {
 public:
  /// Validates and compiles `plan`. All pointers must outlive the
  /// executor; `tcache` may be null iff the plan has no TRC instructions.
  /// `degree_floors` (see ComputeDegreeFloors) is required iff the plan
  /// carries degree filters; `data_labels` (one label per data vertex) is
  /// required iff the plan matches a labeled pattern.
  static StatusOr<std::unique_ptr<PlanExecutor>> Create(
      const ExecutionPlan* plan, AdjacencyProvider* provider,
      TriangleCache* tcache,
      const std::vector<VertexId>* degree_floors = nullptr,
      const std::vector<int>* data_labels = nullptr);

  /// Flushes the accumulated per-instruction dispatch counts and (when
  /// tracing was enabled) exclusive self-times into the process-wide
  /// metrics registry (`executor.instr.*`, see docs/metrics.md).
  ~PlanExecutor();

  /// Runs one local search task, streaming results into `consumer`.
  /// Returns the task's metrics (matches is left 0; consumers count).
  TaskStats RunTask(const SearchTask& task, MatchConsumer* consumer);

  /// Selects the ENU expansion mode (default ExpansionMode::kDfs, the
  /// seed behaviour). `governor` arbitrates frontier leases in kHybrid
  /// and is charged for its region blocks; it may be null (kHybrid then
  /// batches without a ceiling, still reclaiming each batch
  /// stack-style). Must be called before the first RunTask.
  void ConfigureExpansion(ExpansionMode mode, MemoryGovernor* governor);

  /// Installs a cooperative cancellation flag, polled (relaxed) at every
  /// ENU descent boundary: once another thread sets it, the in-flight
  /// backtracking unwinds within a handful of candidate visits instead
  /// of running the task to completion. A cancelled RunTask returns
  /// normally with whatever partial stats/matches it produced — callers
  /// that care (the enumeration service) discard them. Null (the
  /// default) disables the poll; `cancel` must outlive every RunTask.
  void SetCancelFlag(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  const ExecutionPlan& plan() const { return *plan_; }

 private:
  // Compiled form of one instruction with variable references resolved to
  // register slots.
  struct Compiled {
    InstrType type = InstrType::kIntersect;
    int target_set_slot = -1;   // set-producing instructions
    int target_f = -1;          // INI/ENU
    int source_f = -1;          // DBQ: which f to query
    int trc_neighbor_f = -1;    // TRC: the non-start f of the key
    // Set operands as slot ids; kAllVertices encoded as -1.
    std::vector<int> operand_slots;
    // Filters split by kind at compile time so ExecIntersect can fuse
    // them into the kernels: `> f` / `< f` become [lo, hi) clamps on an
    // input view (two binary searches), `≠ f` folds into the emission
    // loop. Each entry is the f index whose runtime value bounds the set.
    std::vector<int> gt_filter_f;
    std::vector<int> lt_filter_f;
    std::vector<int> ne_filter_f;
    bool first_enum = false;    // the ENU of the 2nd matching-order vertex
    // ENU whose enumerated vertex is queried by a downstream DBQ: worth
    // prefetching the candidate set before descending (computed by
    // Compile's ENU→DBQ consumption analysis).
    bool prefetch_hint = false;
    // Degree filter compiled to an id lower bound (ids realize ≺).
    VertexId min_candidate_id = 0;
    int required_label = -1;
    // RES operands: f index if >= 0, otherwise ~slot of a set operand.
    std::vector<int> res_refs;
  };

  // A set register: an owned scratch vector (INT results), a shared
  // immutable set (owned DBQ replies, TRC results) or a borrowed DBQ set
  // (cache hits, direct provider). Borrowed pointers are valid only in
  // the task that set them, and every task writes a slot before reading
  // it.
  struct SetSlot {
    VertexSet owned;
    std::shared_ptr<const VertexSet> shared;
    VertexSetView view;
  };

  PlanExecutor(const ExecutionPlan* plan, AdjacencyProvider* provider,
               TriangleCache* tcache,
               const std::vector<VertexId>* degree_floors,
               const std::vector<int>* data_labels);

  Status Compile();
  void Exec(size_t pc);
  void ExecIntersect(const Compiled& ins);
  /// The plain DFS descent loop of an ENU: label-filter, bind f, recurse
  /// — shared verbatim by the kDfs path, the batched drain and the
  /// spill-to-DFS path, so every mode enumerates identically.
  void DescendRange(const Compiled& ins, const VertexId* candidates,
                    size_t count, size_t pc_next);
  /// kHybrid ENU body: materialize governor-leased candidate batches
  /// into the frontier region, wide-prefetch each batch, drain it
  /// DFS-style, pop the region.
  void ExecEnumerateBatched(const Compiled& ins, VertexSetView candidates,
                            size_t begin, size_t end, size_t pc_next);
  /// The slot's set.
  VertexSetView SlotView(int slot) const {
    BENU_CHECK(slot >= 0) << "V(G) pseudo-operand outside its fast path";
    return slots_[static_cast<size_t>(slot)].view;
  }

  // -------------------------------------------------------------------
  // Per-instruction tracing (DESIGN.md §2e). Dispatch counts accumulate
  // in plain per-executor arrays on every run (one array increment per
  // dispatched instruction) and are flushed to the registry when the
  // executor dies. Self-time attribution is opt-in (BENU_TRACE): each
  // dispatch boundary charges the wall time since the previous boundary
  // to the instruction that was executing, so the times are *exclusive*
  // (an ENU's time excludes the subtree it descends into) and their sum
  // equals the wall time spent inside Exec.
  static constexpr size_t kNumInstrKinds = 6;

  struct InstrTrace {
    bool timed = false;  ///< sampled from TracingEnabled per task
    int current = -1;    ///< instruction kind charged for elapsing time
    std::chrono::steady_clock::time_point last;
    uint64_t self_ns[kNumInstrKinds] = {};
    uint64_t count[kNumInstrKinds] = {};
  };

  /// Charges time since the last boundary to the current instruction and
  /// makes `kind` current (-1: stop attributing, used at task end).
  void TraceSwitch(int kind) {
    const auto now = std::chrono::steady_clock::now();
    if (trace_.current >= 0) {
      trace_.self_ns[trace_.current] += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - trace_.last)
              .count());
    }
    trace_.last = now;
    trace_.current = kind;
  }

  const ExecutionPlan* plan_;
  AdjacencyProvider* provider_;
  /// Pinned for the whole of every RunTask; null when the provider never
  /// borrows.
  std::unique_ptr<DbCache::Reader> reader_;
  TriangleCache* tcache_;
  const std::vector<VertexId>* degree_floors_;
  const std::vector<int>* data_labels_;
  MatchConsumer* consumer_ = nullptr;

  std::vector<Compiled> code_;
  std::vector<VertexId> f_;       // current partial match, by pattern vertex
  std::vector<SetSlot> slots_;
  VertexSet scratch_;             // temporary for multi-operand folds
  VertexSet ne_values_;           // runtime ≠-filter values, reused
  std::vector<VertexSetView> operand_views_;  // reused multi-way sort buffer
  const SearchTask* task_ = nullptr;
  const std::atomic<bool>* cancel_ = nullptr;  // SetCancelFlag
  TaskStats stats_;
  std::vector<VertexId> report_f_;          // reused RES buffer
  std::vector<VertexSetView> report_sets_;  // reused RES buffer

  InstrTrace trace_;
  metrics::Histogram* task_span_us_ = nullptr;  // per-task wall µs (traced)

  // Hybrid expansion state (ConfigureExpansion). The frontier region
  // holds materialized candidate batches.
  ExpansionMode expansion_ = ExpansionMode::kDfs;
  MemoryGovernor* governor_ = nullptr;
  RegionBuffer frontier_;
  // executor.frontier.* accumulators, flushed once in the destructor so
  // the hot loop bumps plain integers instead of registry counters.
  uint64_t frontier_batches_ = 0;    ///< batches materialized + drained
  uint64_t frontier_spills_ = 0;     ///< lease denials -> plain-DFS falls
  uint64_t frontier_widenings_ = 0;  ///< batches wider than the static budget
};

}  // namespace benu

#endif  // BENU_CORE_EXECUTOR_H_
