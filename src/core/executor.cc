#include "core/executor.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "core/memory_governor.h"

namespace benu {
namespace {

// Mnemonics of the paper's instruction set, indexed by InstrType.
constexpr const char* kInstrNames[] = {"INI", "DBQ", "INT",
                                       "ENU", "TRC", "RES"};

bool Reads(const Instruction& ins, const VarRef& var) {
  return std::find(ins.operands.begin(), ins.operands.end(), var) !=
         ins.operands.end();
}

}  // namespace

std::vector<Instruction> FoldSingleUseTemporaries(
    std::vector<Instruction> code) {
  // Backwards, so a filter-free X has already merged into its own reader
  // when T comes up.
  for (size_t t = code.size(); t-- > 0;) {
    const Instruction& def = code[t];
    if (def.type != InstrType::kIntersect || !def.filters.empty() ||
        def.operands.size() < 2) {
      continue;
    }
    const auto reads_t = [&](const Instruction& ins) {
      return Reads(ins, def.target);
    };
    const auto x_it = std::find_if(code.begin() + t + 1, code.end(), reads_t);
    if (x_it == code.end() || x_it->type != InstrType::kIntersect ||
        std::count_if(x_it, code.end(), reads_t) != 1) {
      continue;
    }
    const auto between = [&](auto pred) {
      return std::any_of(code.begin() + t + 1, x_it, pred);
    };
    // Folding across an ENU would undo Opt 2's loop hoisting.
    if (between([](const Instruction& ins) {
          return ins.type == InstrType::kEnumerate;
        })) {
      continue;
    }
    Instruction folded = *x_it;
    folded.operands = def.operands;
    for (const VarRef& op : x_it->operands) {
      if (!(op == def.target) && !Reads(folded, op)) {
        folded.operands.push_back(op);
      }
    }
    // At T's position unless X reads a set defined between T and X.
    const bool at_t = !between(
        [&](const Instruction& ins) { return Reads(*x_it, ins.target); });
    *(at_t ? code.begin() + t : x_it) = std::move(folded);
    code.erase(at_t ? x_it : code.begin() + t);
  }
  return code;
}

AdjacencyProvider::Fetch DirectAdjacencyProvider::GetAdjacency(VertexId v) {
  BENU_CHECK(v < graph_->NumVertices());
  Fetch fetch;
  // Zero-copy: alias the graph's CSR arrays. No shared_ptr is needed
  // because the graph outlives the executor by contract.
  fetch.view = graph_->Adjacency(v);
  fetch.cache_hit = true;
  return fetch;
}

CachedAdjacencyProvider::CachedAdjacencyProvider(DbCache* cache,
                                                 size_t num_vertices,
                                                 size_t prefetch_budget,
                                                 MemoryGovernor* governor)
    : cache_(cache),
      num_vertices_(num_vertices),
      prefetch_budget_(prefetch_budget),
      governor_(governor) {
  dropped_counter_ = metrics::MetricsRegistry::Global().GetCounter(
      "executor.prefetch.dropped", "1",
      "ENU prefetch keys clamped off by the (static or governed) budget; "
      "each surfaces later as a synchronous miss");
}

AdjacencyProvider::Fetch CachedAdjacencyProvider::GetAdjacency(VertexId v) {
  DbCache::Reply reply = cache_->Get(v);
  const AdjacencyPayload& value = reply.value();
  Fetch fetch;
  fetch.cache_hit = reply.outcome == DbCache::Outcome::kHit;
  fetch.coalesced = reply.outcome == DbCache::Outcome::kCoalesced;
  // A coalesced fetch transfers no bytes of its own: the primary miss
  // accounts the reply payload (its actual wire footprint — encoded
  // frame size on compressed transports) once.
  fetch.bytes =
      reply.outcome == DbCache::Outcome::kMiss ? value.wire_bytes : 0;
  // Moving out of `reply.owned` leaves the pointee (and so the view
  // taken here) in place; on a hit the owner stays null.
  fetch.view = VertexSetView(*value.decoded);
  fetch.set = std::move(reply.owned.decoded);
  return fetch;
}

void CachedAdjacencyProvider::Prefetch(const VertexId* keys, size_t count) {
  if (prefetch_budget_ == 0) return;
  // Under a governor the budget breathes with memory headroom (PR 3's
  // static knob is the floor); without one it is the static knob.
  const size_t budget =
      governor_ != nullptr ? governor_->PrefetchBudget() : prefetch_budget_;
  if (count > budget) {
    // The clamped-off keys will be fetched synchronously when their DBQ
    // executes — a real cost, so surface it instead of dropping silently.
    dropped_counter_->Add(count - budget);
  }
  cache_->Prefetch(keys, std::min(count, budget));
}

void TaskStats::Accumulate(const TaskStats& other) {
  res_executions += other.res_executions;
  matches += other.matches;
  adjacency_requests += other.adjacency_requests;
  cache_hits += other.cache_hits;
  db_queries += other.db_queries;
  coalesced_fetches += other.coalesced_fetches;
  bytes_fetched += other.bytes_fetched;
  intersections += other.intersections;
  tcache_hits += other.tcache_hits;
  wall_seconds += other.wall_seconds;
  if (other.cpu_seconds >= 0) {
    cpu_seconds = (cpu_seconds < 0 ? 0 : cpu_seconds) + other.cpu_seconds;
  }
}

PlanExecutor::PlanExecutor(const ExecutionPlan* plan,
                           AdjacencyProvider* provider, TriangleCache* tcache,
                           const std::vector<VertexId>* degree_floors,
                           const std::vector<int>* data_labels)
    : plan_(plan),
      provider_(provider),
      reader_(provider->NewReader()),
      tcache_(tcache),
      degree_floors_(degree_floors),
      data_labels_(data_labels) {
  task_span_us_ = metrics::MetricsRegistry::Global().GetHistogram(
      "executor.task.us", "us", "wall time of one RunTask (traced)");
}

PlanExecutor::~PlanExecutor() {
  auto& registry = metrics::MetricsRegistry::Global();
  if (frontier_batches_ != 0) {
    registry
        .GetCounter("executor.frontier.batches", "1",
                    "frontier batches materialized and drained by the "
                    "hybrid ENU path")
        ->Add(frontier_batches_);
  }
  if (frontier_spills_ != 0) {
    registry
        .GetCounter("executor.frontier.spills", "1",
                    "governor lease denials that degraded an ENU to plain "
                    "DFS with the static prefetch budget")
        ->Add(frontier_spills_);
  }
  if (frontier_widenings_ != 0) {
    registry
        .GetCounter("executor.frontier.widenings", "1",
                    "frontier batches wider than the static prefetch "
                    "budget (headroom bought a wider lookahead)")
        ->Add(frontier_widenings_);
  }
  for (size_t k = 0; k < kNumInstrKinds; ++k) {
    if (trace_.count[k] != 0) {
      registry
          .GetCounter(std::string("executor.instr.") + kInstrNames[k] +
                          ".count",
                      "1", "instruction dispatches")
          ->Add(trace_.count[k]);
    }
    if (trace_.self_ns[k] != 0) {
      registry
          .GetCounter(std::string("executor.instr.") + kInstrNames[k] +
                          ".self_ns",
                      "ns", "exclusive time attributed to this "
                            "instruction kind (traced)")
          ->Add(trace_.self_ns[k]);
    }
  }
}

StatusOr<std::unique_ptr<PlanExecutor>> PlanExecutor::Create(
    const ExecutionPlan* plan, AdjacencyProvider* provider,
    TriangleCache* tcache, const std::vector<VertexId>* degree_floors,
    const std::vector<int>* data_labels) {
  std::string error;
  if (!ValidatePlan(*plan, &error)) {
    return Status::InvalidArgument("invalid plan: " + error);
  }
  bool has_trc = false;
  for (const Instruction& ins : plan->instructions) {
    if (ins.type == InstrType::kTriangleCache) has_trc = true;
  }
  if (has_trc && tcache == nullptr) {
    return Status::InvalidArgument("plan uses TRC but no triangle cache");
  }
  if (plan->UsesDegreeFilters() && degree_floors == nullptr) {
    return Status::InvalidArgument(
        "plan carries degree filters but no degree-floor table was given");
  }
  if (plan->UsesLabelFilters() && data_labels == nullptr) {
    return Status::InvalidArgument(
        "plan matches a labeled pattern but no data labels were given");
  }
  std::unique_ptr<PlanExecutor> executor(new PlanExecutor(
      plan, provider, tcache, degree_floors, data_labels));
  BENU_RETURN_IF_ERROR(executor->Compile());
  return executor;
}

void PlanExecutor::ConfigureExpansion(ExpansionMode mode,
                                      MemoryGovernor* governor) {
  expansion_ = mode;
  governor_ = governor;
  frontier_.BindGovernor(governor);
}

Status PlanExecutor::Compile() {
  const size_t n = plan_->NumPatternVertices();
  f_.assign(n, kInvalidVertex);

  std::map<VarRef, int> slot_of;
  auto set_slot = [&slot_of, this](const VarRef& var) {
    auto [it, inserted] =
        slot_of.emplace(var, static_cast<int>(slot_of.size()));
    if (inserted) slots_.emplace_back();
    return it->second;
  };
  auto operand_slot = [&](const VarRef& var) -> StatusOr<int> {
    if (var.kind == VarKind::kAllVertices) return -1;
    if (var.kind == VarKind::kF) {
      return Status::Internal("f variable used as set operand");
    }
    auto it = slot_of.find(var);
    if (it == slot_of.end()) return Status::Internal("operand not defined");
    return it->second;
  };

  auto annotate = [this](const Instruction& ins, Compiled* c) {
    if (ins.min_degree > 0 && degree_floors_ != nullptr) {
      // Clamping to the last table entry only weakens the bound, which
      // stays sound (the filter is a pruning aid, not a correctness one).
      const size_t d = std::min<size_t>(ins.min_degree,
                                        degree_floors_->size() - 1);
      c->min_candidate_id = (*degree_floors_)[d];
    }
    c->required_label = ins.required_label;
  };

  bool seen_enum = false;
  for (const Instruction& ins :
       FoldSingleUseTemporaries(plan_->instructions)) {
    Compiled c;
    c.type = ins.type;
    // Split filters by kind: order filters become [lo, hi) clamps fused
    // into the intersection inputs, injective filters fold into the
    // emission loop (see ExecIntersect).
    for (const FilterCondition& fc : ins.filters) {
      switch (fc.kind) {
        case FilterKind::kGreater:
          c.gt_filter_f.push_back(fc.f_index);
          break;
        case FilterKind::kLess:
          c.lt_filter_f.push_back(fc.f_index);
          break;
        case FilterKind::kNotEqual:
          c.ne_filter_f.push_back(fc.f_index);
          break;
      }
    }
    if (ins.type == InstrType::kTriangleCache &&
        !ins.filters.empty()) {
      return Status::Internal(
          "TRC instructions must be filter-free (cached sets are shared "
          "across enumerations)");
    }
    switch (ins.type) {
      case InstrType::kInit:
        c.target_f = ins.target.index;
        annotate(ins, &c);
        break;
      case InstrType::kDbQuery:
        c.source_f = ins.operands[0].index;
        c.target_set_slot = set_slot(ins.target);
        break;
      case InstrType::kIntersect:
      case InstrType::kTriangleCache:
        for (const VarRef& op : ins.operands) {
          auto slot = operand_slot(op);
          BENU_RETURN_IF_ERROR(slot.status());
          // V(G) ∩ X = X: drop the pseudo-operand when a concrete set
          // operand is present; the single-operand V(G) fast path handles
          // the remaining case.
          if (*slot == -1 && ins.operands.size() > 1) continue;
          c.operand_slots.push_back(*slot);
        }
        if (ins.type == InstrType::kTriangleCache) {
          // Operands are (A_start, A_neighbor); key by the neighbor's f.
          c.trc_neighbor_f = ins.operands[1].index;
        }
        c.target_set_slot = set_slot(ins.target);
        break;
      case InstrType::kEnumerate: {
        c.target_f = ins.target.index;
        auto slot = operand_slot(ins.operands[0]);
        BENU_RETURN_IF_ERROR(slot.status());
        if (*slot == -1) {
          return Status::Internal(
              "ENU directly over V(G); plans always interpose a filtered "
              "candidate instruction");
        }
        c.operand_slots.push_back(*slot);
        if (!seen_enum) {
          c.first_enum = true;
          seen_enum = true;
        }
        annotate(ins, &c);
        break;
      }
      case InstrType::kReport: {
        // Image-set slots for non-core vertices, in matching order, so
        // the consumer sees them in VcbcExpander::non_core() order.
        std::vector<char> is_core(n, plan_->compressed ? 0 : 1);
        for (VertexId u : plan_->core_vertices) is_core[u] = 1;
        for (VertexId u : plan_->matching_order) {
          if (is_core[u]) continue;
          const VarRef& op = ins.operands[u];
          if (op.kind == VarKind::kF) {
            return Status::Internal("non-core RES operand is f variable");
          }
          auto slot = operand_slot(op);
          BENU_RETURN_IF_ERROR(slot.status());
          c.res_refs.push_back(*slot);
        }
        break;
      }
    }
    code_.push_back(std::move(c));
  }
  // ENU→DBQ consumption analysis: an ENU whose enumerated vertex is the
  // source of a downstream DBQ is worth prefetching: the adjacency sets
  // its candidates need at the DBQ are fetched ahead in batched
  // multi-gets — inline before level i descends (the default), or in
  // the background, overlapping level-(i+1) fetch latency with level-i
  // compute.
  for (size_t i = 0; i < code_.size(); ++i) {
    if (code_[i].type != InstrType::kEnumerate) continue;
    for (size_t j = i + 1; j < code_.size(); ++j) {
      if (code_[j].type == InstrType::kDbQuery &&
          code_[j].source_f == code_[i].target_f) {
        code_[i].prefetch_hint = true;
        break;
      }
    }
  }
  report_sets_.reserve(n);
  return Status::OK();
}

void PlanExecutor::ExecIntersect(const Compiled& ins) {
  SetSlot& out = slots_[static_cast<size_t>(ins.target_set_slot)];
  out.shared.reset();
  VertexSet& result = out.owned;
  ++stats_.intersections;

  // Resolve the compiled filters against the current partial match: keep
  // values in [lo, hi), drop the ≠ values. Clamping an input view costs
  // two binary searches and replaces the seed's intersect-then-erase
  // post-pass; ≠ folds into the kernels' emission loops.
  VertexId lo = 0;
  VertexId hi = kInvalidVertex;
  for (int f : ins.gt_filter_f) {
    lo = std::max(lo, f_[static_cast<size_t>(f)] + 1);
  }
  for (int f : ins.lt_filter_f) {
    hi = std::min(hi, f_[static_cast<size_t>(f)]);
  }
  ne_values_.clear();
  for (int f : ins.ne_filter_f) {
    const VertexId v = f_[static_cast<size_t>(f)];
    if (v >= lo && v < hi) ne_values_.push_back(v);
  }

  const auto& ops = ins.operand_slots;
  if (ops.size() == 1 && ops[0] == -1) {
    // Candidate set over V(G): the clamp alone defines the id range; no
    // set is scanned at all.
    hi = std::min(hi, static_cast<VertexId>(provider_->NumVertices()));
    result.clear();
    if (lo < hi) {
      result.resize(static_cast<size_t>(hi - lo));
      std::iota(result.begin(), result.end(), lo);
      for (VertexId v : ne_values_) EraseValue(&result, v);
    }
    out.view = VertexSetView(result);
    return;
  }

  if (ops.size() == 1) {
    const VertexSetView in = ClampView(SlotView(ops[0]), lo, hi);
    CopyExcluding(in, ne_values_.data(), ne_values_.size(), &result);
    out.view = VertexSetView(result);
    return;
  }

  // Multi-way: order operands by ascending size so the cheapest pair is
  // intersected first and every later operand probes a shrinking result.
  // Clamping the smallest operand clamps the result (result ⊆ each
  // operand); the fold ping-pongs between two reused scratch buffers, so
  // no per-call allocation after warm-up.
  operand_views_.clear();
  for (int slot : ops) operand_views_.push_back(SlotView(slot));
  std::sort(operand_views_.begin(), operand_views_.end(),
            [](const VertexSetView& a, const VertexSetView& b) {
              return a.size < b.size;
            });
  operand_views_[0] = ClampView(operand_views_[0], lo, hi);
  IntersectExcluding(operand_views_[0], operand_views_[1], ne_values_.data(),
                     ne_values_.size(), &result);
  for (size_t i = 2; i < operand_views_.size(); ++i) {
    if (result.empty()) break;
    Intersect(VertexSetView(result), operand_views_[i], &scratch_);
    result.swap(scratch_);
  }
  out.view = VertexSetView(result);
}

void PlanExecutor::Exec(size_t pc) {
  BENU_CHECK(pc < code_.size());
  for (;;) {
    const Compiled& ins = code_[pc];
    const int kind = static_cast<int>(ins.type);
    ++trace_.count[kind];
    if (trace_.timed) TraceSwitch(kind);
    switch (ins.type) {
      case InstrType::kInit:
        if (task_->start < ins.min_candidate_id) return;  // degree filter
        if (ins.required_label >= 0 &&
            (*data_labels_)[task_->start] != ins.required_label) {
          return;
        }
        f_[static_cast<size_t>(ins.target_f)] = task_->start;
        break;
      case InstrType::kDbQuery: {
        AdjacencyProvider::Fetch fetch = provider_->GetAdjacency(
            f_[static_cast<size_t>(ins.source_f)]);
        ++stats_.adjacency_requests;
        if (fetch.cache_hit) {
          ++stats_.cache_hits;
        } else if (fetch.coalesced) {
          ++stats_.coalesced_fetches;
        } else {
          ++stats_.db_queries;
          stats_.bytes_fetched += fetch.bytes;
        }
        SetSlot& slot = slots_[static_cast<size_t>(ins.target_set_slot)];
        // fetch.view stays valid across the move: it points into the
        // owned payload, the pinned cache entry (a hit) or provider
        // storage (zero-copy).
        slot.shared = std::move(fetch.set);
        slot.view = fetch.view;
        break;
      }
      case InstrType::kIntersect:
        ExecIntersect(ins);
        if (SlotView(ins.target_set_slot).empty()) return;  // backtrack
        break;
      case InstrType::kTriangleCache: {
        const VertexId neighbor = f_[static_cast<size_t>(ins.trc_neighbor_f)];
        SetSlot& slot = slots_[static_cast<size_t>(ins.target_set_slot)];
        slot.shared.reset();
        if (auto cached = tcache_->Lookup(neighbor)) {
          ++stats_.tcache_hits;
          slot.shared = std::move(cached);
        } else {
          ++stats_.intersections;
          auto computed = std::make_shared<VertexSet>();
          Intersect(SlotView(ins.operand_slots[0]),
                    SlotView(ins.operand_slots[1]), computed.get());
          tcache_->Insert(neighbor, computed);
          slot.shared = std::move(computed);
        }
        slot.view = VertexSetView(*slot.shared);
        if (slot.view.empty()) return;  // backtrack
        break;
      }
      case InstrType::kEnumerate: {
        VertexSetView candidates = SlotView(ins.operand_slots[0]);
        // Degree filter: ids realize the (degree, id) order, so the
        // filter is one binary search over the sorted candidate set.
        size_t lo = 0;
        if (ins.min_candidate_id > 0) {
          lo = static_cast<size_t>(
              std::lower_bound(candidates.begin(), candidates.end(),
                               ins.min_candidate_id) -
              candidates.begin());
        }
        if (ins.first_enum && task_->seed_second != kInvalidVertex) {
          // Seeded (incremental) task: the second matching-order vertex
          // is pinned to the delta edge's other endpoint. One binary
          // search decides membership; filters and deeper descent run
          // unchanged through the shared DFS body.
          const VertexId* pos =
              std::lower_bound(candidates.begin() + lo, candidates.end(),
                               task_->seed_second);
          if (pos != candidates.end() && *pos == task_->seed_second) {
            DescendRange(ins, pos, 1, pc + 1);
          }
          f_[static_cast<size_t>(ins.target_f)] = kInvalidVertex;
          return;
        }
        size_t begin = lo;
        size_t end = candidates.size;
        if (ins.first_enum && task_->num_subtasks > 1) {
          const size_t span = candidates.size - lo;
          begin = lo + span * task_->subtask_index / task_->num_subtasks;
          end = lo + span * (task_->subtask_index + 1) / task_->num_subtasks;
        }
        // Hybrid mode batches ENUs worth prefetching (the hint marks a
        // downstream DBQ consumer).
        const bool batched = begin < end &&
                             expansion_ == ExpansionMode::kHybrid &&
                             ins.prefetch_hint;
        if (batched) {
          ExecEnumerateBatched(ins, candidates, begin, end, pc + 1);
        } else {
          if (ins.prefetch_hint && begin < end) {
            // Fetch ahead, batched, the adjacency sets this
            // enumeration is about to query (the provider
            // clamps to its prefetch budget; a no-op for providers
            // without one).
            provider_->Prefetch(candidates.begin() + begin, end - begin);
          }
          DescendRange(ins, candidates.begin() + begin, end - begin, pc + 1);
        }
        f_[static_cast<size_t>(ins.target_f)] = kInvalidVertex;
        return;
      }
      case InstrType::kReport: {
        ++stats_.res_executions;
        if (!plan_->compressed) {
          consumer_->OnMatch(f_);
        } else {
          report_sets_.clear();
          for (int slot : ins.res_refs) {
            report_sets_.push_back(SlotView(slot));
          }
          consumer_->OnCompressedCode(f_, report_sets_);
        }
        return;
      }
    }
    ++pc;
  }
}

void PlanExecutor::DescendRange(const Compiled& ins,
                                const VertexId* candidates, size_t count,
                                size_t pc_next) {
  const int kind = static_cast<int>(InstrType::kEnumerate);
  const auto f_index = static_cast<size_t>(ins.target_f);
  for (size_t i = 0; i < count; ++i) {
    // Cooperative cancel: bail between candidate descents, so an
    // unwinding stack of nested DescendRanges drains in O(depth) loop
    // iterations once the flag flips.
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      return;
    }
    if (ins.required_label >= 0 &&
        (*data_labels_)[candidates[i]] != ins.required_label) {
      continue;
    }
    f_[f_index] = candidates[i];
    Exec(pc_next);
    // Back from the subtree: re-attribute elapsing time to this ENU
    // (the loop bookkeeping between descents is its own).
    if (trace_.timed) TraceSwitch(kind);
  }
}

void PlanExecutor::ExecEnumerateBatched(const Compiled& ins,
                                        VertexSetView candidates,
                                        size_t begin, size_t end,
                                        size_t pc_next) {
  size_t i = begin;
  while (i < end) {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      return;  // don't materialize further batches for a dead query
    }
    const size_t remaining = end - i;
    size_t batch_count = remaining;
    if (governor_ != nullptr) {
      const size_t granted =
          governor_->GrantFrontierLease(remaining * sizeof(VertexId));
      batch_count = std::min(remaining, granted / sizeof(VertexId));
      if (batch_count == 0) {
        // Near the ceiling: degrade the rest of this candidate set to
        // plain DFS. The provider still prefetches under the (by now
        // narrow) governed budget — exactly the PR 3 static path.
        ++frontier_spills_;
        if (ins.prefetch_hint) {
          provider_->Prefetch(candidates.begin() + i, remaining);
        }
        DescendRange(ins, candidates.begin() + i, remaining, pc_next);
        return;
      }
    }
    const RegionBuffer::Mark mark = frontier_.mark();
    VertexId* batch = frontier_.AllocateArray(batch_count);
    std::copy(candidates.begin() + i, candidates.begin() + i + batch_count,
              batch);
    ++frontier_batches_;
    if (governor_ != nullptr &&
        batch_count > governor_->base_prefetch_budget()) {
      ++frontier_widenings_;
    }
    if (ins.prefetch_hint) {
      // One wide prefetch covering the whole batch's next-level DBQ
      // keys; the batch then drains DFS-style while the fetches land.
      provider_->Prefetch(batch, batch_count);
    }
    DescendRange(ins, batch, batch_count, pc_next);
    frontier_.PopTo(mark);
    i += batch_count;
  }
}

TaskStats PlanExecutor::RunTask(const SearchTask& task,
                                MatchConsumer* consumer) {
  Stopwatch watch;
  const double cpu_start = ThreadCpuSeconds();
  stats_ = TaskStats();
  task_ = &task;
  consumer_ = consumer;
  trace_.timed = metrics::TracingEnabled();
  trace_.current = -1;
  if (tcache_ != nullptr) tcache_->BeginTask(task.start);
  std::fill(f_.begin(), f_.end(), kInvalidVertex);
  // Borrowed cache hits stay valid for the whole task.
  if (reader_ != nullptr) reader_->Pin();
  if (cancel_ == nullptr || !cancel_->load(std::memory_order_relaxed)) {
    Exec(0);
  }
  if (reader_ != nullptr) reader_->Unpin();
  if (trace_.timed) TraceSwitch(-1);  // charge the tail interval
  task_ = nullptr;
  consumer_ = nullptr;
  stats_.wall_seconds = watch.ElapsedSeconds();
  if (trace_.timed) {
    task_span_us_->Record(
        static_cast<uint64_t>(stats_.wall_seconds * 1e6));
  }
  const double cpu_end = ThreadCpuSeconds();
  stats_.cpu_seconds =
      (cpu_start >= 0 && cpu_end >= 0) ? cpu_end - cpu_start : -1;
  return stats_;
}

}  // namespace benu
