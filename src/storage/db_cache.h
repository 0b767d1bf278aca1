#ifndef BENU_STORAGE_DB_CACHE_H_
#define BENU_STORAGE_DB_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "graph/vertex_set.h"
#include "storage/kv_store.h"

namespace benu {

class MemoryGovernor;

/// Hit/miss statistics of a database cache. Every lookup is counted in
/// exactly one bucket: `hits` (served from cache), `misses` (this lookup
/// issued a store query of its own) or `coalesced` (this lookup waited on
/// another thread's in-flight query for the same key — no store traffic).
///
/// Hit-rate convention (the one convention used everywhere — reports,
/// benches and tests): a lookup counts as a *hit* iff it was served from
/// the cache without waiting on any store round trip. Coalesced waits are
/// therefore non-hits — the caller did wait out a remote round trip, just
/// a shared one — and sit in the denominator:
///
///   HitRate()   = hits / Lookups()
///   StallRate() = (misses + coalesced) / Lookups() = 1 - HitRate()
///
/// `misses` alone is the store-query rate: without prefetching it equals
/// the number of store queries this cache issued. With lookahead,
/// Prefetch adds `prefetches_issued` further keys, fetched in batched
/// multi-gets, that belong to no lookup bucket (a converted prefetch
/// surfaces later as a plain hit).
struct DbCacheStats {
  Count hits = 0;
  Count misses = 0;
  Count coalesced = 0;

  /// Keys fetched by Prefetch (not already cached or in flight).
  Count prefetches_issued = 0;
  /// Hits served by a prefetched entry on its first touch: the lookup
  /// needed no round trip of its own.
  Count prefetch_hits = 0;
  /// Prefetched entries evicted — or never retained (zero/overflowed
  /// capacity, or fetched at a superseded epoch) — without serving a
  /// single hit: wasted fetch work.
  Count prefetch_wasted = 0;
  /// Entries evicted by AdvanceEpoch's precise invalidation (their
  /// vertex was touched by an epoch's delta).
  Count epoch_invalidations = 0;
  /// Round trips of the batched lookahead fetches (one per partition
  /// per batch) and their payload bytes; the cluster's virtual-time
  /// model adds them to the worker's compute makespan.
  Count prefetch_round_trips = 0;
  Count prefetch_bytes = 0;

  /// Total lookups: every Get lands in exactly one of the three buckets.
  Count Lookups() const { return hits + misses + coalesced; }

  double HitRate() const {
    const Count total = Lookups();
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }

  double StallRate() const {
    const Count total = Lookups();
    return total == 0 ? 0.0
                      : static_cast<double>(misses + coalesced) / total;
  }
};

/// The local in-memory database cache of §V-A: one per worker machine,
/// shared by all of the worker's threads, storing adjacency sets fetched
/// from the distributed database. Recency-based replacement captures the
/// intra-task locality of the backtracking search; sharing across threads
/// captures the inter-task locality of overlapping neighborhoods.
/// Capacity is in bytes of cached adjacency payload, so experiments can
/// size it relative to the data graph (Exp-3).
///
/// Charge basis: entries are raw sorted sets (the transport decodes any
/// encoded reply once, before it gets here), and each is charged its raw
/// bytes (4 per entry) plus a fixed per-entry overhead, whatever the
/// wire carried. The current total is exported as the
/// `db_cache.resident_bytes` gauge.
///
/// Lock-free hits: vertex ids are dense in [0, store->num_vertices()), so
/// a table of atomic entry pointers indexed by vertex id finds a cached
/// entry with one load and no lock. A hit writes no shared state except
/// the entry's CLOCK reference bit, and only when that bit is clear, so
/// threads hitting the same hot entries keep its cache line shared.
///
/// CLOCK replacement: each shard keeps its entries in a ring (a list
/// whose front is the hand). Making room sweeps the hand: an entry with
/// its reference bit set has the bit cleared and rotates behind the hand
/// (its second chance); the first entry with a clear bit is evicted.
/// CLOCK approximates the paper's LRU without the per-hit list splice a
/// true LRU needs. Misses, evictions and in-flight bookkeeping stay
/// under per-shard mutexes.
///
/// Borrowed hits, task-scoped reclamation: a hit returns a pointer into
/// the cache entry instead of a refcounted copy. A caller must hold a
/// pinned Reader while it uses borrowed replies (PlanExecutor pins one per
/// thread for the whole of each task). An entry that eviction or
/// AdvanceEpoch unlinks is retired, not freed: it is freed once every
/// Reader pinned when it was unlinked has unpinned. The bytes waiting on
/// such readers are exported as the `db_cache.retired_bytes` gauge.
///
/// Single-flight misses: concurrent lookups of the same absent key are
/// coalesced — exactly one thread (the primary) queries the distributed
/// store while the others block on the in-flight entry and share its
/// reply, so N racing threads cost one remote query instead of N.
///
/// Lookahead (§2d of DESIGN.md): Prefetch registers a flight for each
/// absent key, then the calling thread fetches those keys through the
/// store's batched multi-get — one round trip per partition per batch.
/// A Get racing one of those keys coalesces on its flight as on any
/// other. Prefetch-inserted entries are tagged so stats can tell
/// converted hits from wasted fetches.
class DbCache {
 private:
  struct ReaderSlot;

 public:
  /// How one Get was served.
  enum class Outcome {
    kHit,        ///< present in the cache
    kMiss,       ///< this call queried the distributed store
    kCoalesced,  ///< waited on another thread's in-flight store query
  };

  struct Reply {
    /// Hits only: the cache entry's payload, borrowed. Valid while the
    /// caller's Reader stays pinned.
    const AdjacencyPayload* borrowed = nullptr;
    /// Misses and coalesced waits: the payload, owned by the reply (the
    /// cache may not retain it, or may evict it at any time).
    AdjacencyPayload owned;
    Outcome outcome = Outcome::kMiss;

    /// The decoded set and its wire footprint.
    const AdjacencyPayload& value() const {
      return borrowed != nullptr ? *borrowed : owned;
    }
  };

  /// A registered reader of borrowed replies. A thread registers one
  /// Reader and pins it around each unit of work (PlanExecutor: each
  /// task); every Get it makes must happen while pinned, and every
  /// borrowed reply stays valid until the matching Unpin. Pin and Unpin
  /// write only this reader's own cache-line-padded slot; hits write no
  /// slot at all. One thread uses a Reader at a time, and every Reader
  /// must be destroyed before its cache.
  class Reader {
   public:
    explicit Reader(DbCache* cache);
    ~Reader();

    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    void Pin();
    /// Ends the pin; borrowed replies may be freed from here on. Frees
    /// the retired entries no other pinned reader can still hold.
    void Unpin();

   private:
    DbCache* cache_;
    ReaderSlot* slot_ = nullptr;
    bool pinned_ = false;
  };

  /// `capacity_bytes` == 0 disables caching (every get is a miss that
  /// goes to the store and is not retained; concurrent misses still
  /// coalesce). `prefetch_batch_size` caps the keys per batched
  /// multi-get of Prefetch; with a `governor` it is the base of the
  /// governor's headroom-scaled dynamic batch size, and every
  /// insert/evict reports its resident-byte delta to the governor so
  /// cache growth counts against the memory budget.
  DbCache(const DistributedKvStore* store, size_t capacity_bytes,
          size_t num_shards = 8, size_t prefetch_batch_size = 16,
          MemoryGovernor* governor = nullptr);

  ~DbCache();

  DbCache(const DbCache&) = delete;
  DbCache& operator=(const DbCache&) = delete;

  /// Returns Γ(v) and how the lookup was served: from cache when present
  /// (borrowed), otherwise querying the distributed store (or
  /// piggybacking on a concurrent in-flight query) and inserting the
  /// reply (owned). The calling thread must hold a pinned Reader.
  Reply Get(VertexId v);

  /// Convenience wrapper around Get that returns the set as a shared
  /// owner; it pins a Reader of its own, so it needs none from the
  /// caller.
  /// `was_hit`, if non-null, reports whether this call was served from
  /// cache (coalesced waits count as not-hit — the documented
  /// DbCacheStats convention: the caller did wait out a remote round
  /// trip, just a shared one).
  std::shared_ptr<const VertexSet> GetAdjacency(VertexId v,
                                                bool* was_hit = nullptr);

  /// Registers a flight for every key that is neither cached nor
  /// already in flight, then fetches those keys on the calling thread,
  /// in order, in batched multi-gets, and returns once all are
  /// published. Resident keys cost one lock-free load each. Safe to call
  /// concurrently with Get on the same keys — single-flight holds across
  /// both, so the store sees at most one query per distinct key while it
  /// stays cached.
  void Prefetch(const VertexId* keys, size_t count);

  /// Moves the cache to `epoch`, precisely invalidating the entries of
  /// `touched` vertices (the EpochDelta's endpoint set) — untouched
  /// entries stay hot. In-flight fetches started under the old epoch are
  /// not installed when they land (their flight's epoch tag mismatches;
  /// the fetch counts as prefetch_wasted for prefetch flights), and
  /// coalesced waiters woken by a stale flight retry under the new
  /// epoch, so a prefetch racing an epoch advance can never publish a
  /// stale adjacency set into the new snapshot.
  void AdvanceEpoch(uint64_t epoch, std::span<const VertexId> touched);

  /// The epoch this cache currently serves.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Bytes of unlinked entries still waiting for pinned readers (the
  /// `db_cache.retired_bytes` gauge, for this cache alone).
  size_t RetiredBytes() const {
    return retired_bytes_.load(std::memory_order_relaxed);
  }

  /// Aggregated statistics over all shards.
  DbCacheStats stats() const;

  /// Current cached resident bytes over all shards (incl. the per-entry
  /// overhead) — what capacity is charged against, also exported as the
  /// `db_cache.resident_bytes` gauge.
  size_t SizeBytes() const;

  size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    Entry(VertexId k, AdjacencyPayload v, size_t b, bool p)
        : key(k), value(std::move(v)), bytes(b), prefetched(p) {}

    const VertexId key;
    const AdjacencyPayload value;
    /// Raw set bytes + kEntryOverheadBytes, the capacity charge.
    const size_t bytes;
    /// Inserted by the prefetch pipeline and not yet hit. Whoever clears
    /// it by exchange settles it exactly once: the first hit (counted as
    /// prefetch_hits) or the unlink (counted as prefetch_wasted).
    std::atomic<bool> prefetched;
    /// CLOCK reference bit: set by hits, cleared by the sweeping hand.
    std::atomic<bool> referenced{false};
    /// This entry's node in its shard's ring (then in a retired list;
    /// splicing keeps the node, so the iterator stays valid).
    std::list<Entry>::iterator pos;
    /// Value of `era_` when the entry was retired (under retire_mu_).
    uint64_t retired_era = 0;
  };
  /// One Reader's announcement: the era it pinned at, 0 while unpinned.
  struct alignas(64) ReaderSlot {
    std::atomic<uint64_t> era{0};
    bool in_use = false;  ///< guarded by readers_mu_
  };
  /// One in-flight store query, fetched by the thread that registered
  /// it; waiters block on `ready_cv`.
  struct Flight {
    std::mutex mu;
    std::condition_variable ready_cv;
    AdjacencyPayload value;
    bool ready = false;
    /// Cache epoch the flight was created (or refetched) under; installs
    /// whose tag no longer matches the cache epoch are dropped. Atomic:
    /// waiters re-check it lock-free after wake.
    std::atomic<uint64_t> epoch{0};
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> clock;  // CLOCK ring; the hand is at the front
    std::unordered_map<VertexId, std::shared_ptr<Flight>> inflight;
    size_t bytes = 0;
    Count misses = 0;
    Count coalesced = 0;
    Count prefetches_issued = 0;
    Count prefetch_wasted = 0;
    Count epoch_invalidations = 0;
  };

  Shard& ShardFor(VertexId v) { return *shards_[v % shards_.size()]; }
  static size_t EntryBytes(const AdjacencyPayload& value) {
    return value.size() * sizeof(VertexId) + kEntryOverheadBytes;
  }

  /// Counts a hit on `entry` and borrows its payload.
  Reply Hit(Entry* entry);
  /// Inserts the reply into the shard's ring (sweeping the CLOCK hand
  /// until it fits), unlinks the flight and publishes the value to
  /// waiters.
  void InsertAndPublish(VertexId v, AdjacencyPayload value,
                        const std::shared_ptr<Flight>& flight,
                        bool prefetched);
  /// Under shard.mu: removes `it` from the table and the ring and moves
  /// it to `victims`, to be retired once the lock is dropped.
  void UnlinkLocked(Shard& shard, std::list<Entry>::iterator it,
                    std::list<Entry>* victims);
  /// Tags unlinked entries with the current era, moves them to the
  /// retired list, then reclaims.
  void Retire(std::list<Entry>* victims);
  /// Frees every retired entry that no pinned reader can still hold.
  void Reclaim();

  static constexpr size_t kEntryOverheadBytes = 32;

  const DistributedKvStore* store_;
  size_t capacity_bytes_;
  /// Epoch the cache serves; bumped by AdvanceEpoch before the touched
  /// entries are purged, so racing installs see the new epoch first.
  std::atomic<uint64_t> epoch_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  /// The resident entry of each vertex id, or null. Written under the
  /// owning shard's mutex; read lock-free by hits.
  size_t num_vertices_;
  std::unique_ptr<std::atomic<Entry*>[]> table_;
  /// Per-cache hit counters, sharded per thread (stats()).
  metrics::Counter hits_;
  metrics::Counter prefetch_hits_;

  // Task-scoped reclamation. `era_` advances once per retired batch; a
  // Reader announces the era it pinned at. An entry retired at era r can
  // still be held only by readers that announced an era <= r, because
  // its unlink precedes the bump that readers pinning later observe.
  // Every access on either side of that handshake is seq_cst, so a
  // reader's announcement and a retirer's unlink cannot both be missed.
  std::atomic<uint64_t> era_{1};
  std::mutex readers_mu_;  ///< guards readers_ and ReaderSlot::in_use
  std::vector<std::unique_ptr<ReaderSlot>> readers_;
  std::mutex retire_mu_;  ///< guards retired_; taken before readers_mu_
  std::list<Entry> retired_;
  std::atomic<size_t> retired_bytes_{0};

  // Registry mirrors of the per-cache stats (process-wide totals across
  // all caches, `db_cache.*` in docs/metrics.md), resolved once at
  // construction; bumped with relaxed sharded adds next to the legacy
  // counters. The span histograms record fetch/wait latencies and are
  // only written when tracing is enabled (metrics::TracingEnabled).
  struct RegistryMirror {
    metrics::Counter* hits = nullptr;
    metrics::Counter* misses = nullptr;
    metrics::Counter* coalesced = nullptr;
    metrics::Counter* prefetches_issued = nullptr;
    metrics::Counter* prefetch_hits = nullptr;
    metrics::Counter* prefetch_wasted = nullptr;
    metrics::Counter* epoch_invalidations = nullptr;
    metrics::Counter* prefetch_round_trips = nullptr;
    metrics::Counter* prefetch_bytes = nullptr;
    metrics::Gauge* resident_bytes = nullptr;
    metrics::Gauge* retired_bytes = nullptr;
    metrics::Histogram* sync_fetch_us = nullptr;
    metrics::Histogram* coalesced_wait_us = nullptr;
    metrics::Histogram* batch_fetch_us = nullptr;
  };
  RegistryMirror metrics_;

  size_t prefetch_batch_size_;
  /// Optional memory governor (hybrid execution): receives resident-byte
  /// deltas and supplies the dynamic multi-get batch size.
  MemoryGovernor* governor_;
  std::atomic<Count> prefetch_round_trips_{0};
  std::atomic<Count> prefetch_bytes_{0};
};

}  // namespace benu

#endif  // BENU_STORAGE_DB_CACHE_H_
