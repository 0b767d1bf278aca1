#include "service/query_engine.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "distributed/dynamic_runner.h"
#include "distributed/task.h"
#include "graph/patterns.h"
#include "plan/filters.h"
#include "plan/plan_search.h"

namespace benu::service {

// --- FairScheduler ----------------------------------------------------

void FairScheduler::Add(uint64_t session, uint64_t query) {
  for (SessionQueue& s : sessions_) {
    if (s.session == session) {
      s.queries.push_back(query);
      return;
    }
  }
  sessions_.push_back(SessionQueue{session, {query}});
}

void FairScheduler::Remove(uint64_t query) {
  for (auto s = sessions_.begin(); s != sessions_.end(); ++s) {
    for (auto q = s->queries.begin(); q != s->queries.end(); ++q) {
      if (*q == query) {
        s->queries.erase(q);
        if (s->queries.empty()) sessions_.erase(s);
        return;
      }
    }
  }
}

bool FairScheduler::Next(uint64_t* query) {
  if (sessions_.empty()) return false;
  SessionQueue& s = sessions_.front();
  *query = s.queries.front();
  // Rotate the session's internal rotor, then the session rotor: the
  // next turn goes to the next session, and this session's next turn
  // goes to its next query.
  s.queries.push_back(s.queries.front());
  s.queries.pop_front();
  sessions_.push_back(std::move(sessions_.front()));
  sessions_.pop_front();
  return true;
}

size_t FairScheduler::size() const {
  size_t n = 0;
  for (const SessionQueue& s : sessions_) n += s.queries.size();
  return n;
}

// --- QueryEngine ------------------------------------------------------

QueryEngine::QueryEngine(Graph graph, const ServiceConfig& config,
                         std::vector<int> data_labels)
    : config_(config),
      graph_(std::move(graph)),
      data_labels_(std::move(data_labels)),
      data_stats_(DataGraphStats::FromGraph(graph_)) {
  auto& registry = metrics::MetricsRegistry::Global();
  admitted_counter_ = registry.GetCounter(
      "service.query.admitted", "1", "queries that passed admission");
  rejected_counter_ = registry.GetCounter(
      "service.query.rejected", "1",
      "queries refused at submit (malformed spec or admission control)");
  cancelled_counter_ = registry.GetCounter(
      "service.query.cancelled", "1", "active queries cancelled");
  completed_counter_ = registry.GetCounter(
      "service.query.completed", "1", "queries that ran to completion");
  tasks_counter_ = registry.GetCounter(
      "service.tasks.executed", "1",
      "search tasks executed by the service's shared pool");
  plan_hit_counter_ = registry.GetCounter(
      "service.plan_cache.hits", "1", "queries served by a cached plan");
  plan_miss_counter_ = registry.GetCounter(
      "service.plan_cache.misses", "1",
      "queries that ran plan search and populated the cache");
  latency_us_ = registry.GetHistogram(
      "service.query.latency_us", "us",
      "admission-to-completion latency of finished queries (traced)");
}

StatusOr<std::unique_ptr<QueryEngine>> QueryEngine::Create(
    const Graph& data_graph, const ServiceConfig& config,
    std::shared_ptr<Transport> transport, std::vector<int> data_labels) {
  if (!data_labels.empty() &&
      data_labels.size() != data_graph.NumVertices()) {
    return Status::InvalidArgument(
        "data_labels must hold one label per data vertex");
  }
  auto prepared = PrepareDataGraph(data_graph, config.relabel_by_degree,
                                   transport.get(), std::move(data_labels));
  BENU_RETURN_IF_ERROR(prepared.status());
  std::unique_ptr<QueryEngine> engine(new QueryEngine(
      std::move(prepared->graph), config, std::move(prepared->labels)));
  // Kept so StageDelta can map delta endpoints (original ids on the
  // wire) into the engine's frozen relabeling.
  engine->old_to_new_ = std::move(prepared->old_to_new);
  BENU_RETURN_IF_ERROR(engine->Start(std::move(transport)));
  return engine;
}

Status QueryEngine::Start(std::shared_ptr<Transport> transport) {
  governor_ = std::make_unique<MemoryGovernor>(config_.memory_budget_bytes,
                                               config_.prefetch_budget,
                                               config_.prefetch_batch_size);
  // The store is always versioned: with an empty overlay (no epochs
  // committed) it passes base payloads through unchanged, so one-shot
  // service behavior is identical to the plain store it replaced.
  if (transport == nullptr) {
    transport = MakeSimulatedTransport(graph_, config_.db_partitions,
                                       config_.compress_adjacency);
  }
  vstore_ = std::make_unique<VersionedAdjacencyStore>(std::move(transport));
  store_ = vstore_.get();
  cache_ = std::make_unique<DbCache>(store_, config_.db_cache_bytes,
                                     /*num_shards=*/8,
                                     config_.prefetch_batch_size,
                                     governor_.get());
  provider_ = std::make_unique<CachedAdjacencyProvider>(
      cache_.get(), graph_.NumVertices(), config_.prefetch_budget,
      governor_.get());
  const unsigned hw = std::thread::hardware_concurrency();
  num_threads_ = config_.execution_threads > 0
                     ? static_cast<size_t>(config_.execution_threads)
                     : std::max<size_t>(1, hw > 0 ? hw : 1);
  threads_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
  return Status::OK();
}

QueryEngine::~QueryEngine() {
  // Cancel everything still active, then stop the workers. In-flight
  // tasks see the cancel flag and unwind; their done callbacks fire from
  // MaybeFinalize before the workers exit (queries with nothing in
  // flight finalize right here).
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Subscriptions end first: their terminal results (cancelled flag,
    // last maintained total) flush before the engine dies.
    std::vector<uint64_t> sub_ids;
    for (const auto& [id, sub] : subs_) sub_ids.push_back(id);
    for (uint64_t id : sub_ids) {
      auto sit = subs_.find(id);
      if (sit == subs_.end()) continue;
      Subscription sub = std::move(sit->second);
      subs_.erase(sit);
      TerminateSubscription(std::move(sub));
    }
    std::vector<uint64_t> ids;
    ids.reserve(actives_.size());
    for (const auto& [id, q] : actives_) ids.push_back(id);
    for (uint64_t id : ids) {
      auto it = actives_.find(id);
      if (it == actives_.end()) continue;
      ActiveQuery* q = it->second.get();
      if (!q->cancelled.exchange(true, std::memory_order_relaxed)) {
        ++stats_.cancelled;
        cancelled_counter_->Add(1);
      }
      if (q->in_scheduler) {
        sched_.Remove(id);
        q->in_scheduler = false;
      }
      MaybeFinalize(id, q);
    }
    stop_ = true;
    work_cv_.notify_all();
  }
  for (std::thread& t : threads_) t.join();
  // Any query whose last in-flight task raced the stop flag: finalize
  // now that every worker is gone.
  {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<uint64_t> ids;
    for (const auto& [id, q] : actives_) ids.push_back(id);
    for (uint64_t id : ids) {
      auto it = actives_.find(id);
      if (it != actives_.end()) {
        it->second->in_flight = 0;
        MaybeFinalize(id, it->second.get());
      }
    }
  }
}

Status QueryEngine::Reject(Status status) {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.rejected;
  rejected_counter_->Add(1);
  return status;
}

StatusOr<std::shared_ptr<const QueryEngine::PlanEntry>> QueryEngine::PlanFor(
    const wire::QuerySpec& spec, bool* cache_hit) {
  // Cache key: pattern name, the plan-shaping option bits, and the
  // pattern labels. Symmetry-breaking constraints are a pure function of
  // (pattern, labels) — computed inside GenerateBestPlan — so they are
  // covered by construction; the progress bit shapes nothing and is
  // excluded.
  std::string key = spec.pattern;
  key.push_back('\0');
  key += std::to_string(spec.options &
                        (wire::kQueryVcbc | wire::kQueryDegreeFilter));
  for (int32_t label : spec.pattern_labels) {
    key.push_back('\0');
    key += std::to_string(label);
  }
  // plan_mu_ is held across plan search: concurrent submits of the same
  // new key then cost one search instead of racing duplicates, and plan
  // search for the catalog's ≤5-vertex patterns is milliseconds.
  std::lock_guard<std::mutex> lk(plan_mu_);
  auto it = plan_cache_.find(key);
  if (it != plan_cache_.end()) {
    *cache_hit = true;
    plan_hit_counter_->Add(1);
    ++plan_hits_;
    return it->second;
  }
  *cache_hit = false;
  auto pattern = GetPattern(spec.pattern);
  BENU_RETURN_IF_ERROR(pattern.status());
  if (!spec.pattern_labels.empty()) {
    if (data_labels_.empty()) {
      return Status::FailedPrecondition(
          "labeled query on a service started without data labels");
    }
    if (spec.pattern_labels.size() != pattern->NumVertices()) {
      return Status::InvalidArgument(
          "pattern has " + std::to_string(pattern->NumVertices()) +
          " vertices but the query carries " +
          std::to_string(spec.pattern_labels.size()) + " labels");
    }
  }
  PlanSearchOptions options;
  options.apply_vcbc = spec.want_vcbc();
  options.apply_degree_filter = spec.want_degree_filter();
  options.pattern_labels.assign(spec.pattern_labels.begin(),
                                spec.pattern_labels.end());
  auto searched = GenerateBestPlan(*pattern, data_stats_, options);
  BENU_RETURN_IF_ERROR(searched.status());
  auto entry = std::make_shared<PlanEntry>();
  entry->plan = std::move(searched->plan);
  entry->cost = searched->cost;
  if (entry->plan.UsesDegreeFilters()) {
    entry->degree_floors =
        ComputeDegreeFloors(graph_, entry->plan.pattern.MaxDegree());
  }
  entry->tasks =
      GenerateSearchTasks(graph_, entry->plan, config_.task_split_threshold);
  // Compile-check the plan against this engine's provider/labels once,
  // here, so a plan the executor cannot run is a submit-time rejection
  // instead of a worker-thread abort.
  TriangleCache probe_tcache(0);
  auto probe = PlanExecutor::Create(
      &entry->plan, provider_.get(), &probe_tcache,
      entry->degree_floors.empty() ? nullptr : &entry->degree_floors,
      entry->plan.UsesLabelFilters() ? &data_labels_ : nullptr);
  BENU_RETURN_IF_ERROR(probe.status());
  plan_miss_counter_->Add(1);
  ++plan_misses_;
  std::shared_ptr<const PlanEntry> shared = std::move(entry);
  plan_cache_.emplace(std::move(key), shared);
  return shared;
}

StatusOr<uint64_t> QueryEngine::Submit(uint64_t session,
                                       const wire::QuerySpec& spec,
                                       QueryDoneFn done,
                                       QueryProgressFn progress,
                                       QueryDeltaFn on_delta) {
  std::shared_ptr<const IncrementalPlanSet> inc;
  if (spec.want_subscribe()) {
    // Incremental maintenance needs every match materialized (retraction
    // mirrors matches one by one) and an unlabeled pattern; reject the
    // incompatible option bits up front.
    if (spec.want_vcbc()) {
      return Reject(Status::InvalidArgument(
          "kQuerySubscribe is incompatible with kQueryVcbc: delta "
          "maintenance needs full, uncompressed matches"));
    }
    if (!spec.pattern_labels.empty()) {
      return Reject(Status::InvalidArgument(
          "kQuerySubscribe does not support labeled patterns"));
    }
    auto pattern = GetPattern(spec.pattern);
    if (!pattern.ok()) return Reject(pattern.status());
    auto plans = GenerateIncrementalPlans(*pattern);
    if (!plans.ok()) return Reject(plans.status());
    // Compile-checked here so CommitEpoch's step cannot fail.
    Status checked = CheckIncrementalPlans(*plans, provider_.get());
    if (!checked.ok()) return Reject(std::move(checked));
    inc = std::make_shared<const IncrementalPlanSet>(*std::move(plans));
  }
  bool cache_hit = false;
  auto plan = PlanFor(spec, &cache_hit);
  if (!plan.ok()) return Reject(plan.status());
  if (config_.max_plan_cost > 0) {
    const double cost =
        (*plan)->cost.communication + (*plan)->cost.computation;
    if (cost > config_.max_plan_cost) {
      return Reject(Status::ResourceExhausted(
          "estimated plan cost " + std::to_string(cost) +
          " exceeds the service's max_plan_cost budget"));
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (stop_) {
    ++stats_.rejected;
    rejected_counter_->Add(1);
    return Status::Unavailable("service is shutting down");
  }
  if (actives_.size() >= config_.max_active_queries) {
    ++stats_.rejected;
    rejected_counter_->Add(1);
    return Status::ResourceExhausted(
        "active-query cap reached (" +
        std::to_string(config_.max_active_queries) + ")");
  }
  size_t reserved = 0;
  if (config_.per_query_reserve_bytes > 0) {
    const size_t want = config_.per_query_reserve_bytes;
    if (governor_->GrantFrontierLease(want) < want) {
      ++stats_.rejected;
      rejected_counter_->Add(1);
      return Status::ResourceExhausted(
          "per-query byte reservation denied by the memory governor");
    }
    // Pin the reservation so subsequent admissions (and the hybrid
    // executors' own leases) see it; released at finalization.
    governor_->AddFrontierPinned(static_cast<int64_t>(want));
    reserved = want;
  }
  const uint64_t id = next_query_id_++;
  auto q = std::make_unique<ActiveQuery>();
  q->id = id;
  q->session = session;
  q->spec = spec;
  q->plan = std::move(plan).value();
  q->plan_cache_hit = cache_hit;
  q->reserved_bytes = reserved;
  q->done = std::move(done);
  q->progress = std::move(progress);
  q->on_delta = std::move(on_delta);
  q->inc = std::move(inc);
  q->contexts.resize(num_threads_);
  ++stats_.admitted;
  admitted_counter_->Add(1);
  ActiveQuery* qp = q.get();
  actives_.emplace(id, std::move(q));
  if (qp->plan->tasks.empty()) {
    // Degenerate (empty graph): nothing to run, complete immediately —
    // the done callback fires inside this Submit.
    MaybeFinalize(id, qp);
    return id;
  }
  qp->in_scheduler = true;
  sched_.Add(session, id);
  work_cv_.notify_all();
  return id;
}

void QueryEngine::WorkerLoop(size_t thread) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    uint64_t qid = 0;
    for (;;) {
      if (stop_) return;
      if (sched_.Next(&qid)) break;
      work_cv_.wait(lk);
    }
    // Scheduler invariant: a query in the rotor is active, uncancelled
    // and has unclaimed tasks.
    auto it = actives_.find(qid);
    BENU_CHECK(it != actives_.end()) << "scheduled query not active";
    ActiveQuery* q = it->second.get();
    const size_t task_index = q->next_task++;
    ++q->in_flight;
    if (q->next_task == q->plan->tasks.size()) {
      sched_.Remove(qid);
      q->in_scheduler = false;
    }
    lk.unlock();
    RunOneTask(thread, q, task_index);
    lk.lock();
    --q->in_flight;
    ++q->done_tasks;
    QueryContext* ctx = q->contexts[thread].get();
    const Count total = ctx->consumer->matches();
    q->matches_so_far += total - ctx->reported_matches;
    ctx->reported_matches = total;
    tasks_counter_->Add(1);
    if (q->progress && q->spec.want_progress() &&
        config_.progress_interval_tasks > 0 &&
        q->done_tasks % config_.progress_interval_tasks == 0 &&
        q->done_tasks < q->plan->tasks.size() &&
        !q->cancelled.load(std::memory_order_relaxed)) {
      wire::QueryProgress p;
      p.tasks_done = q->done_tasks;
      p.tasks_total = q->plan->tasks.size();
      p.matches_so_far = q->matches_so_far;
      q->progress(p);
    }
    MaybeFinalize(qid, q);
  }
}

void QueryEngine::RunOneTask(size_t thread, ActiveQuery* q,
                             size_t task_index) {
  std::unique_ptr<QueryContext>& slot = q->contexts[thread];
  if (slot == nullptr) {
    auto ctx = std::make_unique<QueryContext>();
    ctx->tcache = std::make_unique<TriangleCache>();
    ctx->consumer = std::make_unique<CountingConsumer>(q->plan->plan);
    auto exec = PlanExecutor::Create(
        &q->plan->plan, provider_.get(), ctx->tcache.get(),
        q->plan->degree_floors.empty() ? nullptr : &q->plan->degree_floors,
        q->plan->plan.UsesLabelFilters() ? &data_labels_ : nullptr);
    // PlanFor compile-checked this exact combination at admission.
    BENU_CHECK(exec.ok()) << exec.status().message();
    ctx->executor = std::move(exec).value();
    ctx->executor->SetCancelFlag(&q->cancelled);
    slot = std::move(ctx);
  }
  slot->executor->RunTask(q->plan->tasks[task_index], slot->consumer.get());
}

void QueryEngine::MaybeFinalize(uint64_t id, ActiveQuery* q) {
  if (q->finalized || q->in_flight > 0) return;
  const bool cancelled = q->cancelled.load(std::memory_order_relaxed);
  if (!cancelled && q->next_task < q->plan->tasks.size()) return;
  q->finalized = true;
  wire::QueryResultInfo info;
  Count matches = 0;
  Count codes = 0;
  for (const auto& ctx : q->contexts) {
    if (ctx != nullptr) {
      matches += ctx->consumer->matches();
      codes += ctx->consumer->codes();
    }
  }
  info.matches = matches;
  info.codes = codes;
  info.tasks = q->done_tasks;
  info.elapsed_us = static_cast<uint64_t>(q->watch.ElapsedMicros());
  if (cancelled) info.flags |= wire::kQueryResultCancelled;
  if (q->plan_cache_hit) info.flags |= wire::kQueryResultPlanCacheHit;
  if (q->reserved_bytes > 0) {
    governor_->AddFrontierPinned(-static_cast<int64_t>(q->reserved_bytes));
  }
  if (!cancelled) {
    ++stats_.completed;
    completed_counter_->Add(1);
  }
  // Latency is clock-derived: recorded only under tracing so untraced
  // metrics snapshots stay byte-deterministic (the repo convention).
  if (metrics::TracingEnabled()) latency_us_->Record(info.elapsed_us);
  auto node = actives_.extract(id);
  BENU_CHECK(!node.empty());
  drain_cv_.notify_all();
  if (!cancelled && node.mapped()->spec.want_subscribe()) {
    // The baseline of a subscribe query completed: promote it to a live
    // subscription at the current epoch. The baseline done fires below
    // (cancelled flag clear — non-terminal per the QueryDoneFn contract);
    // the terminal fire comes from TerminateSubscription.
    ActiveQuery* q = node.mapped().get();
    Subscription sub;
    sub.id = id;
    sub.session = q->session;
    sub.spec = q->spec;
    sub.inc = q->inc;
    sub.total = info.matches;
    sub.watch = q->watch;
    sub.done = q->done;
    sub.on_delta = q->on_delta;
    subs_.emplace(id, std::move(sub));
  }
  if (node.mapped()->done) node.mapped()->done(info);
}

void QueryEngine::TerminateSubscription(Subscription sub) {
  ++stats_.cancelled;
  cancelled_counter_->Add(1);
  wire::QueryResultInfo info;
  info.matches = sub.total;  // the last maintained total
  info.elapsed_us = static_cast<uint64_t>(sub.watch.ElapsedMicros());
  info.flags = wire::kQueryResultCancelled;
  if (sub.done) sub.done(info);
}

bool QueryEngine::Cancel(uint64_t query_id) {
  std::lock_guard<std::mutex> lk(mu_);
  if (auto sit = subs_.find(query_id); sit != subs_.end()) {
    Subscription sub = std::move(sit->second);
    subs_.erase(sit);
    TerminateSubscription(std::move(sub));
    return true;
  }
  auto it = actives_.find(query_id);
  if (it == actives_.end() || it->second->finalized) return false;
  ActiveQuery* q = it->second.get();
  if (!q->cancelled.exchange(true, std::memory_order_relaxed)) {
    ++stats_.cancelled;
    cancelled_counter_->Add(1);
  }
  if (q->in_scheduler) {
    sched_.Remove(query_id);
    q->in_scheduler = false;
  }
  MaybeFinalize(query_id, q);
  return true;
}

void QueryEngine::CancelSession(uint64_t session) {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<uint64_t> sub_ids;
  for (const auto& [id, sub] : subs_) {
    if (sub.session == session) sub_ids.push_back(id);
  }
  for (uint64_t id : sub_ids) {
    auto sit = subs_.find(id);
    if (sit == subs_.end()) continue;
    Subscription sub = std::move(sit->second);
    subs_.erase(sit);
    TerminateSubscription(std::move(sub));
  }
  std::vector<uint64_t> ids;
  for (const auto& [id, q] : actives_) {
    if (q->session == session) ids.push_back(id);
  }
  for (uint64_t id : ids) {
    auto it = actives_.find(id);
    if (it == actives_.end() || it->second->finalized) continue;
    ActiveQuery* q = it->second.get();
    if (!q->cancelled.exchange(true, std::memory_order_relaxed)) {
      ++stats_.cancelled;
      cancelled_counter_->Add(1);
    }
    if (q->in_scheduler) {
      sched_.Remove(id);
      q->in_scheduler = false;
    }
    MaybeFinalize(id, q);
  }
}

void QueryEngine::Drain() {
  std::unique_lock<std::mutex> lk(mu_);
  drain_cv_.wait(lk, [this] { return actives_.empty(); });
}

// --- dynamic graph (versioned store + subscriptions) ------------------

Status QueryEngine::StageDelta(uint64_t target_epoch,
                               std::span<const EdgeDelta> ops) {
  std::lock_guard<std::mutex> lk(mu_);
  if (stop_) return Status::Unavailable("service is shutting down");
  if (target_epoch != vstore_->epoch() + 1) {
    return Status::FailedPrecondition(
        "delta targets epoch " + std::to_string(target_epoch) +
        " but the engine is at epoch " + std::to_string(vstore_->epoch()) +
        " (target must be current + 1)");
  }
  const size_t n = graph_.NumVertices();
  for (const EdgeDelta& op : ops) {
    if (op.u >= n || op.v >= n) {
      return Status::InvalidArgument(
          "delta endpoint outside the data graph's vertex universe");
    }
  }
  staged_.reserve(staged_.size() + ops.size());
  for (EdgeDelta op : ops) {
    if (!old_to_new_.empty()) {
      op.u = old_to_new_[op.u];
      op.v = old_to_new_[op.v];
    }
    staged_.push_back(op);
  }
  return Status::OK();
}

StatusOr<uint64_t> QueryEngine::CommitEpoch(uint64_t target_epoch) {
  std::lock_guard<std::mutex> lk(mu_);
  if (stop_) return Status::Unavailable("service is shutting down");
  if (target_epoch != vstore_->epoch() + 1) {
    return Status::FailedPrecondition(
        "commit targets epoch " + std::to_string(target_epoch) +
        " but the engine is at epoch " + std::to_string(vstore_->epoch()) +
        " (target must be current + 1)");
  }
  if (!actives_.empty()) {
    // Mid-commit snapshot changes would give running queries a mixed
    // view; mu_ is held for the whole commit, so the converse (a query
    // admitted mid-commit) cannot happen either.
    return Status::FailedPrecondition(
        "cannot commit an epoch while queries are in flight; retry after "
        "they finish");
  }
  // One target per subscription, each counted only (no sinks). No
  // subscription is added or erased under mu_, so both loops below visit
  // subs_ in the same order.
  std::vector<MaintenanceTarget> targets;
  targets.reserve(subs_.size());
  for (const auto& [id, sub] : subs_) {
    targets.push_back({sub.inc.get(), nullptr, nullptr});
  }
  const MaintainedEpoch epoch = MaintainEpoch(
      vstore_.get(), cache_.get(), provider_.get(), staged_, targets);
  staged_.clear();
  size_t i = 0;
  for (auto& [id, sub] : subs_) {
    const TargetDelta& counts = epoch.targets[i++];
    wire::MatchDelta report;
    report.epoch = epoch.epoch;
    report.added = counts.added;
    report.retracted = counts.retracted;
    BENU_CHECK(sub.total + report.added >= report.retracted);
    sub.total = sub.total + report.added - report.retracted;
    report.total = sub.total;
    if (sub.on_delta) sub.on_delta(report);
  }
  return epoch.epoch;
}

QueryEngine::EngineStats QueryEngine::stats() const {
  EngineStats out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    out = stats_;
    out.active = actives_.size();
    out.subscriptions = subs_.size();
  }
  {
    std::lock_guard<std::mutex> lk(plan_mu_);
    out.plan_hits = plan_hits_;
    out.plan_misses = plan_misses_;
  }
  return out;
}

size_t QueryEngine::plan_cache_size() const {
  std::lock_guard<std::mutex> lk(plan_mu_);
  return plan_cache_.size();
}

}  // namespace benu::service
