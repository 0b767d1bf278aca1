#include "storage/db_cache.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "core/memory_governor.h"

namespace benu {

DbCache::DbCache(const DistributedKvStore* store, size_t capacity_bytes,
                 size_t num_shards, size_t prefetch_batch_size,
                 MemoryGovernor* governor)
    : store_(store),
      capacity_bytes_(capacity_bytes),
      num_vertices_(store->num_vertices()),
      table_(std::make_unique<std::atomic<Entry*>[]>(num_vertices_)),
      prefetch_batch_size_(prefetch_batch_size == 0 ? 1
                                                    : prefetch_batch_size),
      governor_(governor) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  auto& registry = metrics::MetricsRegistry::Global();
  metrics_.hits = registry.GetCounter(
      "db_cache.hits", "1", "lookups served from cache without any wait");
  metrics_.misses = registry.GetCounter(
      "db_cache.misses", "1", "lookups that issued a store query");
  metrics_.coalesced = registry.GetCounter(
      "db_cache.coalesced", "1",
      "lookups that waited on another thread's in-flight query (non-hits)");
  metrics_.prefetches_issued = registry.GetCounter(
      "db_cache.prefetches_issued", "1",
      "keys fetched by Prefetch (not cached, not in flight)");
  metrics_.prefetch_hits = registry.GetCounter(
      "db_cache.prefetch_hits", "1",
      "first-touch hits on prefetched entries (no round trip of their own)");
  metrics_.prefetch_wasted = registry.GetCounter(
      "db_cache.prefetch_wasted", "1",
      "prefetched entries evicted or dropped without serving a hit");
  metrics_.epoch_invalidations = registry.GetCounter(
      "db_cache.epoch_invalidations", "1",
      "entries evicted by AdvanceEpoch's precise invalidation");
  metrics_.prefetch_round_trips = registry.GetCounter(
      "db_cache.prefetch_round_trips", "1",
      "round trips of batched lookahead fetches (1/partition/batch)");
  metrics_.prefetch_bytes = registry.GetCounter(
      "db_cache.prefetch_bytes", "bytes",
      "payload bytes fetched by the prefetch pipeline");
  metrics_.resident_bytes = registry.GetGauge(
      "db_cache.resident_bytes", "bytes",
      "currently cached resident bytes (encoded size for compressed "
      "entries, plus per-entry overhead) across all caches");
  metrics_.retired_bytes = registry.GetGauge(
      "db_cache.retired_bytes", "bytes",
      "bytes of evicted or invalidated entries not yet freed because a "
      "pinned reader may still hold them, across all caches");
  metrics_.sync_fetch_us = registry.GetHistogram(
      "db_cache.sync_fetch.us", "us",
      "latency of synchronous primary-miss store queries (traced)");
  metrics_.coalesced_wait_us = registry.GetHistogram(
      "db_cache.coalesced_wait.us", "us",
      "time a coalesced lookup waited on a sibling's flight (traced)");
  metrics_.batch_fetch_us = registry.GetHistogram(
      "db_cache.batch_fetch.us", "us",
      "latency of one batched lookahead multi-get (traced)");
}

DbCache::~DbCache() {
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    for (const auto& slot : readers_) {
      BENU_CHECK(!slot->in_use) << "a DbCache::Reader outlived its cache";
    }
  }
  // The byte gauges are process-wide totals across caches; un-count this
  // cache's surviving and retired entries (and release the governor's
  // budget share, so a later run under the same governor starts clean).
  metrics_.retired_bytes->Add(-static_cast<double>(RetiredBytes()));
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (shard->bytes != 0) {
      metrics_.resident_bytes->Add(-static_cast<double>(shard->bytes));
      if (governor_ != nullptr) {
        governor_->AddCacheResident(-static_cast<int64_t>(shard->bytes));
      }
    }
  }
}

DbCache::Reader::Reader(DbCache* cache) : cache_(cache) {
  std::lock_guard<std::mutex> lock(cache_->readers_mu_);
  for (const auto& slot : cache_->readers_) {
    if (!slot->in_use) {
      slot_ = slot.get();
      break;
    }
  }
  if (slot_ == nullptr) {
    cache_->readers_.push_back(std::make_unique<ReaderSlot>());
    slot_ = cache_->readers_.back().get();
  }
  slot_->in_use = true;
}

DbCache::Reader::~Reader() {
  Unpin();
  std::lock_guard<std::mutex> lock(cache_->readers_mu_);
  slot_->in_use = false;
}

void DbCache::Reader::Pin() {
  pinned_ = true;
  slot_->era.store(cache_->era_.load(std::memory_order_seq_cst),
                   std::memory_order_seq_cst);
}

void DbCache::Reader::Unpin() {
  if (!pinned_) return;
  pinned_ = false;
  slot_->era.store(0, std::memory_order_seq_cst);
  // Either this load sees entries a retirer could not free because of
  // this reader's pin, or that retirer's scan saw the unpin above.
  if (cache_->retired_bytes_.load(std::memory_order_seq_cst) != 0) {
    cache_->Reclaim();
  }
}

DbCache::Reply DbCache::Hit(Entry* entry) {
  // Set the reference bit only when clear: a hot entry's line then stays
  // shared across the threads hitting it.
  if (!entry->referenced.load(std::memory_order_relaxed)) {
    entry->referenced.store(true, std::memory_order_relaxed);
  }
  if (entry->prefetched.load(std::memory_order_relaxed) &&
      entry->prefetched.exchange(false, std::memory_order_relaxed)) {
    // First touch of a prefetched entry: the pipeline converted a
    // would-be stall into a hit.
    prefetch_hits_.Add(1);
    metrics_.prefetch_hits->Add(1);
  }
  hits_.Add(1);
  metrics_.hits->Add(1);
  Reply reply;
  reply.borrowed = &entry->value;
  reply.outcome = Outcome::kHit;
  return reply;
}

DbCache::Reply DbCache::Get(VertexId v) {
  BENU_CHECK(v < num_vertices_) << "vertex " << v << " out of range";
  // The lock-free hit. seq_cst (the same plain load as acquire on x86-64)
  // because it pairs with Reader::Pin against a retirer's unlink.
  if (Entry* entry = table_[v].load(std::memory_order_seq_cst)) {
    return Hit(entry);
  }
  Shard& shard = ShardFor(v);
  std::shared_ptr<Flight> flight;
  bool primary = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // The entry may have landed since the probe above.
    if (Entry* entry = table_[v].load(std::memory_order_relaxed)) {
      return Hit(entry);
    }
    auto fit = shard.inflight.find(v);
    if (fit != shard.inflight.end()) {
      // Another thread (a Get primary or a Prefetch) is already fetching
      // v: piggyback on its query.
      flight = fit->second;
      ++shard.coalesced;
      metrics_.coalesced->Add(1);
    } else {
      ++shard.misses;
      metrics_.misses->Add(1);
      flight = std::make_shared<Flight>();
      flight->epoch.store(epoch_.load(std::memory_order_acquire),
                          std::memory_order_relaxed);
      shard.inflight.emplace(v, flight);
      primary = true;
    }
  }

  Reply reply;
  if (!primary) {
    {
      metrics::ScopedSpan span(metrics_.coalesced_wait_us);
      std::unique_lock<std::mutex> fl(flight->mu);
      flight->ready_cv.wait(fl, [&flight] { return flight->ready; });
    }
    if (flight->epoch.load(std::memory_order_acquire) !=
        epoch_.load(std::memory_order_acquire)) {
      // The flight we waited on was fetched under a superseded epoch:
      // its value belongs to the previous snapshot (and was not
      // retained). Retry under the current epoch.
      return Get(v);
    }
    reply.owned = flight->value;
    reply.outcome = Outcome::kCoalesced;
    return reply;
  }

  // Primary miss path: query the distributed database outside any lock so
  // a slow remote fetch blocks neither other keys of this shard nor the
  // waiters of other flights.
  AdjacencyPayload value;
  for (;;) {
    {
      metrics::ScopedSpan span(metrics_.sync_fetch_us);
      value = store_->GetAdjacency(v);
    }
    const uint64_t now = epoch_.load(std::memory_order_acquire);
    if (flight->epoch.load(std::memory_order_relaxed) == now) break;
    // An epoch advanced mid-fetch: the value may be the old snapshot's.
    // Re-stamp the flight and refetch so this Get returns (and installs)
    // the current epoch's adjacency.
    flight->epoch.store(now, std::memory_order_release);
  }
  reply.owned = value;
  reply.outcome = Outcome::kMiss;
  InsertAndPublish(v, std::move(value), flight, /*prefetched=*/false);
  return reply;
}

void DbCache::InsertAndPublish(VertexId v, AdjacencyPayload value,
                               const std::shared_ptr<Flight>& flight,
                               bool prefetched) {
  Shard& shard = ShardFor(v);
  const size_t bytes = EntryBytes(value);
  // Fetched under a superseded epoch? Publish to waiters (they re-check
  // the tag and retry) but never retain — a stale adjacency set must not
  // surface as a hit in the new snapshot.
  const bool stale = flight->epoch.load(std::memory_order_acquire) !=
                     epoch_.load(std::memory_order_acquire);
  std::list<Entry> victims;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.inflight.erase(v);
    const size_t shard_capacity =
        capacity_bytes_ == 0 ? 0 : capacity_bytes_ / shards_.size();
    // Capacity 0 / oversized: not retained. A resident entry (a raced
    // insert, unreachable while single-flight holds) is kept as is.
    const bool retain = !stale && bytes <= shard_capacity &&
                        table_[v].load(std::memory_order_relaxed) == nullptr;
    if (retain) {
      // Sweep the CLOCK hand until the new entry fits. Each entry gets at
      // most one second chance per sweep, so hits racing the sweep
      // cannot keep it from making progress.
      size_t second_chances = shard.clock.size();
      while (shard.bytes + bytes > shard_capacity) {
        auto hand = shard.clock.begin();
        if (second_chances > 0 &&
            hand->referenced.load(std::memory_order_relaxed)) {
          --second_chances;
          hand->referenced.store(false, std::memory_order_relaxed);
          shard.clock.splice(shard.clock.end(), shard.clock, hand);
        } else {
          UnlinkLocked(shard, hand, &victims);
        }
      }
      Entry& entry = shard.clock.emplace_back(v, value, bytes, prefetched);
      entry.pos = std::prev(shard.clock.end());
      table_[v].store(&entry, std::memory_order_release);
      shard.bytes += bytes;
      metrics_.resident_bytes->Add(static_cast<double>(bytes));
      if (governor_ != nullptr) {
        governor_->AddCacheResident(static_cast<int64_t>(bytes));
      }
    } else if (prefetched) {
      // Fetched but never retained: the prefetch cannot convert a future
      // lookup, so the work is wasted by definition.
      ++shard.prefetch_wasted;
      metrics_.prefetch_wasted->Add(1);
    }
  }
  Retire(&victims);
  // Publish to waiters only after the flight is unlinked from the shard,
  // so a late Get either sees the cached entry or starts a fresh flight.
  {
    std::lock_guard<std::mutex> fl(flight->mu);
    flight->value = std::move(value);
    flight->ready = true;
  }
  flight->ready_cv.notify_all();
}

void DbCache::UnlinkLocked(Shard& shard, std::list<Entry>::iterator it,
                           std::list<Entry>* victims) {
  if (it->prefetched.exchange(false, std::memory_order_relaxed)) {
    ++shard.prefetch_wasted;
    metrics_.prefetch_wasted->Add(1);
  }
  table_[it->key].store(nullptr, std::memory_order_seq_cst);
  shard.bytes -= it->bytes;
  metrics_.resident_bytes->Add(-static_cast<double>(it->bytes));
  if (governor_ != nullptr) {
    governor_->AddCacheResident(-static_cast<int64_t>(it->bytes));
  }
  victims->splice(victims->end(), shard.clock, it);
}

void DbCache::Retire(std::list<Entry>* victims) {
  if (victims->empty()) return;
  {
    std::lock_guard<std::mutex> lock(retire_mu_);
    // Every victim is already unlinked, so a reader that pins after this
    // bump (and sees the new era) cannot reach any of them. Bumping under
    // the lock keeps retired_ in era order.
    const uint64_t era = era_.fetch_add(1, std::memory_order_seq_cst);
    size_t bytes = 0;
    for (Entry& entry : *victims) {
      entry.retired_era = era;
      bytes += entry.bytes;
    }
    retired_.splice(retired_.end(), *victims);
    retired_bytes_.store(retired_bytes_.load(std::memory_order_relaxed) + bytes,
                         std::memory_order_seq_cst);
    metrics_.retired_bytes->Add(static_cast<double>(bytes));
  }
  Reclaim();
}

void DbCache::Reclaim() {
  std::list<Entry> freed;  // destroyed after the lock below is released
  std::lock_guard<std::mutex> lock(retire_mu_);
  if (retired_.empty()) return;
  uint64_t oldest_pin = std::numeric_limits<uint64_t>::max();
  {
    std::lock_guard<std::mutex> readers_lock(readers_mu_);
    for (const auto& slot : readers_) {
      const uint64_t era = slot->era.load(std::memory_order_seq_cst);
      if (era != 0 && era < oldest_pin) oldest_pin = era;
    }
  }
  // retired_ is in era order: free its prefix retired before every pin.
  size_t bytes = 0;
  auto end = retired_.begin();
  for (; end != retired_.end() && end->retired_era < oldest_pin; ++end) {
    bytes += end->bytes;
  }
  freed.splice(freed.end(), retired_, retired_.begin(), end);
  retired_bytes_.store(retired_bytes_.load(std::memory_order_relaxed) - bytes,
                       std::memory_order_seq_cst);
  metrics_.retired_bytes->Add(-static_cast<double>(bytes));
}

void DbCache::Prefetch(const VertexId* keys, size_t count) {
  std::vector<VertexId> fresh;
  std::vector<std::shared_ptr<Flight>> flights;
  for (size_t i = 0; i < count; ++i) {
    const VertexId v = keys[i];
    // Resident keys — every key on a warm cache — cost one lock-free
    // load: no shard lock, no allocation. The key is only a hint, so an
    // entry evicted right after this load is simply not fetched ahead.
    if (table_[v].load(std::memory_order_relaxed) != nullptr) continue;
    Shard& shard = ShardFor(v);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (table_[v].load(std::memory_order_relaxed) != nullptr) {
      continue;  // landed since the probe
    }
    if (shard.inflight.count(v) != 0) continue;  // another thread fetches it
    if (fresh.empty()) {
      fresh.reserve(count - i);
      flights.reserve(count - i);
    }
    auto flight = std::make_shared<Flight>();
    flight->epoch.store(epoch_.load(std::memory_order_acquire),
                        std::memory_order_relaxed);
    shard.inflight.emplace(v, flight);
    ++shard.prefetches_issued;
    metrics_.prefetches_issued->Add(1);
    fresh.push_back(v);
    flights.push_back(std::move(flight));
  }
  for (size_t begin = 0; begin < fresh.size();) {
    // With a governor the multi-get width breathes with memory headroom
    // (re-read per batch — pressure can change while fetching): wider
    // batches amortize more round-trip latency when memory is plentiful,
    // and fall back to the static knob near the cap.
    const size_t batch_limit = governor_ != nullptr
                                   ? governor_->PrefetchBatchSize()
                                   : prefetch_batch_size_;
    const std::span<const VertexId> batch(
        fresh.data() + begin, std::min(batch_limit, fresh.size() - begin));
    DistributedKvStore::BatchReply reply;
    {
      metrics::ScopedSpan span(metrics_.batch_fetch_us);
      reply = store_->GetAdjacencyBatch(batch);
    }
    prefetch_round_trips_.fetch_add(reply.round_trips,
                                    std::memory_order_relaxed);
    prefetch_bytes_.fetch_add(reply.bytes, std::memory_order_relaxed);
    metrics_.prefetch_round_trips->Add(reply.round_trips);
    metrics_.prefetch_bytes->Add(reply.bytes);
    for (size_t i = 0; i < batch.size(); ++i) {
      InsertAndPublish(batch[i], std::move(reply.values[i]),
                       flights[begin + i], /*prefetched=*/true);
    }
    begin += batch.size();
  }
}

void DbCache::AdvanceEpoch(uint64_t epoch,
                           std::span<const VertexId> touched) {
  // Publish the new epoch BEFORE purging: an install racing this call
  // either reads the new epoch (and drops itself as stale) or installed
  // under the old epoch before the purge (and is purged below). Either
  // way no stale entry survives into the new epoch.
  epoch_.store(epoch, std::memory_order_release);
  std::list<Entry> victims;
  for (VertexId v : touched) {
    if (v >= num_vertices_) continue;
    Shard& shard = ShardFor(v);
    std::lock_guard<std::mutex> lock(shard.mu);
    Entry* entry = table_[v].load(std::memory_order_relaxed);
    if (entry == nullptr) continue;
    ++shard.epoch_invalidations;
    metrics_.epoch_invalidations->Add(1);
    UnlinkLocked(shard, entry->pos, &victims);
  }
  Retire(&victims);
}

std::shared_ptr<const VertexSet> DbCache::GetAdjacency(VertexId v,
                                                       bool* was_hit) {
  Reader reader(this);
  reader.Pin();
  Reply reply = Get(v);
  if (was_hit != nullptr) *was_hit = reply.outcome == Outcome::kHit;
  return reply.value().Materialize();
}

DbCacheStats DbCache::stats() const {
  DbCacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.misses += shard->misses;
    total.coalesced += shard->coalesced;
    total.prefetches_issued += shard->prefetches_issued;
    total.prefetch_wasted += shard->prefetch_wasted;
    total.epoch_invalidations += shard->epoch_invalidations;
  }
  total.hits = hits_.Value();
  total.prefetch_hits = prefetch_hits_.Value();
  total.prefetch_round_trips =
      prefetch_round_trips_.load(std::memory_order_relaxed);
  total.prefetch_bytes = prefetch_bytes_.load(std::memory_order_relaxed);
  return total;
}

size_t DbCache::SizeBytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->bytes;
  }
  return total;
}

}  // namespace benu
