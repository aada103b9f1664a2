#ifndef BTRIM_COMMON_LOCK_ORDER_H_
#define BTRIM_COMMON_LOCK_ORDER_H_

#include <cstdint>

#if defined(BTRIM_LOCK_ORDER_CHECKS)
#include <string>
#include <vector>
#endif

namespace btrim {

/// The global lock hierarchy (DESIGN.md Sec. 12). Every lock in the engine
/// carries one of these ranks; the debug-build LockOrderValidator records the
/// acquisition graph over ranks and reports any cycle it ever observes.
///
/// Lower-ranked (outer) locks are acquired before higher-ranked (inner) ones
/// on every path. Nesting *within* one rank is permitted — sharded lock
/// families (GC shards, allocator shards, page-frame latches during B+Tree
/// latch coupling) order themselves internally by convention (shard index /
/// tree depth) and the validator does not track intra-rank edges.
///
/// The numeric gaps leave room to slot new locks without renumbering; only
/// the relative order matters. kUnranked locks are invisible to the
/// validator (use sparingly: short-lived, provably-leaf locks only).
enum class LockRank : uint16_t {
  kUnranked = 0,

  // --- Tier 0: background orchestration gates -----------------------------
  kCheckpointGate = 5,      ///< Database::checkpoint_mu_ (one checkpointer at
                            ///< a time; held across the whole checkpoint,
                            ///< hence the outermost rank)
  kIlmTick = 20,            ///< Database::ilm_tick_mu_
  kGcPass = 30,             ///< Database::gc_pass_mu_
  kNetServer = 32,          ///< net::Server::conns_mu_ (fd -> connection map;
                            ///< per-connection locks nest inside it on the
                            ///< accept/close paths)
  kNetConn = 34,            ///< net::Connection::mu (write buffer + pending
                            ///< request queue; leaf toward the engine — no
                            ///< engine lock is ever taken while it is held)

  // --- Tier 1: per-subsystem fan-out / registries --------------------------
  kGcDrain = 40,          ///< ImrsGc::Shard::drain_mu (one drainer per shard)
  kIlmRegistry = 50,      ///< IlmManager::registry_mu_ (lookup-only; no
                          ///< lock is ever acquired while it is held)
  kMetricsRegistry = 60,  ///< obs::MetricsRegistry::mu_ (Snapshot() calls
                          ///< gauge callbacks that take subsystem locks)
  kThreadPool = 70,       ///< ThreadPool::mu_ (tasks run with it released)
  kPartitionPack = 80,    ///< PartitionState::pack_mu

  // --- Tier 2: transaction admission ---------------------------------------
  kTxnGate = 90,    ///< TransactionManager::gate_mu_
  kTxnShard = 100,  ///< TransactionManager::ActiveShard::mu

  // --- Tier 3: catalog and per-row maps ------------------------------------
  kCatalog = 110,      ///< Database::catalog_mu_
  kFilePool = 120,     ///< Database::file_mu_
  kLockTable = 125,    ///< LockManager::Stripe::table_lock (entry map; taken
                       ///< before the stripe mutex on every slow path)
  kLockStripe = 130,   ///< LockManager::Stripe::mu
  kColdBuilder = 142,  ///< ColdStore::PartitionBuilders::mu (open builders;
                       ///< appends to the cold segment file and takes the
                       ///< segment list + index shards while held)
  kColdSegments = 143, ///< ColdStore::segments_mu_ (sealed-segment list)
  kColdIndexShard = 144, ///< ColdStore::IndexShard::mu (rid -> location)
  kHashBucket = 150,   ///< HashIndex::Bucket::lock
  kIlmQueue = 160,     ///< IlmQueue::lock_
  kTsfModel = 170,     ///< TsfLearner::mu_
  kGcShard = 175,      ///< ImrsGc::Shard::mu (work queue)

  // --- Tier 4: page path ----------------------------------------------------
  // Frame latches rank *outside* the buffer map: latch-coupling paths hold a
  // page latch and block on the install mutex when the next page misses
  // (hits take no mutex). The reverse nesting inside FixPage (frame latch
  // taken under the install mutex) is a try-lock asserted free, which
  // records no ordering edge (see OnTryAcquire). kIndexFreeList ranks
  // inside kPageFrame because split writers allocate pages while holding
  // the leaf latch.
  kBTreeRoot = 180,      ///< reserved (tree_lock_ retired by the OLC rebuild;
                         ///< the root pointer is now a lock-free atomic)
  kPageFrame = 190,      ///< BufferCache frame latches (latch-coupled in-rank)
  kBufferMap = 200,      ///< BufferCache::install_mu_ (miss path only)
  kIndexFreeList = 205,  ///< BTree::pages_mu_ (retired/free page lists)

  // --- Tier 5: durability internals -----------------------------------------
  kGroupCommit = 210,     ///< GroupCommitter::mu_
  kLogInternal = 220,     ///< Log::poison_mu_, Mem/FaultyLogStorage::mu_
  kDeviceInternal = 230,  ///< MemDevice::mu_, FaultyDevice::mu_
  kFaultPlan = 240,       ///< FaultPlan::mu_ (inside faulty device/log ops)

  // --- Tier 6: leaf bookkeeping ---------------------------------------------
  kAllocShard = 250,    ///< FragmentAllocator shard locks
  kCheckpointStash = 255, ///< Database::CheckpointState::stash_mu (CoW
                          ///< pre-image side buffer; leaf — no lock is ever
                          ///< taken while it is held)
  kGcDeferred = 260,    ///< ImrsGc::deferred_mu_
  kGcReclaimHooks = 265,///< ImrsGc::reclaim_mu_ (hook list; hooks run with
                        ///< it released)
  kIlmLastCycle = 270,  ///< IlmManager::last_cycle_mu_
  kSamplerRing = 290,   ///< TimeSeriesSampler::mu_

  // --- Test-only ranks (lock_order_test's injected inversion) ---------------
  kTestA = 1000,
  kTestB = 1010,
};

/// Human-readable rank name for reports ("catalog", "page_frame", ...).
const char* LockRankName(LockRank rank);

#if defined(BTRIM_LOCK_ORDER_CHECKS)

/// Runtime lock-order validator (debug / sanitizer / torture builds only).
///
/// Every ranked lock reports its acquisitions and releases here. The
/// validator keeps one process-wide directed graph over LockRank values: an
/// edge a->b is recorded the first time any thread acquires a rank-b lock
/// while holding a rank-a lock (a != b). Inserting an edge that closes a
/// cycle records a violation carrying both sides of the inversion: the
/// held-lock stack of the thread that closed the cycle, and the held-lock
/// stack captured when the reverse path's first edge was originally
/// observed. Violations are recorded, not fatal — the stress and torture
/// harnesses assert ViolationCount() == 0 at the end of the run so one run
/// surfaces every distinct inversion instead of dying on the first.
///
/// Costs when enabled: a thread-local held-locks vector per acquisition and
/// a shared-mutex read for known edges; the exclusive path (graph mutation +
/// DFS) runs only the first time a given rank pair nests. Compiled out of
/// release builds entirely (the guard hooks become empty inlines).
class LockOrderValidator {
 public:
  struct Violation {
    LockRank from;               ///< edge that closed the cycle: from -> to
    LockRank to;
    std::string cycle;           ///< rank path to -> ... -> from -> to
    std::string acquire_stack;   ///< held locks of the acquiring thread
    std::string prior_stack;     ///< held locks when the reverse path's
                                 ///< first edge was recorded
  };

  /// Process-wide singleton used by the guard hooks.
  static LockOrderValidator* Global();

  void OnAcquire(LockRank rank, const char* name);
  /// A *successful* non-blocking acquisition: joins the thread's held stack
  /// (so later blocking acquisitions under it still record edges) but adds
  /// no edge itself — a try-lock never waits, so it can never be the
  /// blocked hop of a deadlock cycle.
  void OnTryAcquire(LockRank rank, const char* name);
  void OnRelease(LockRank rank, const char* name);

  int64_t ViolationCount() const;
  std::vector<Violation> Violations() const;

  /// Multi-line report of every recorded violation ("" when clean).
  std::string Report() const;

  /// Drops all recorded edges and violations (test isolation). Held-lock
  /// stacks of live threads are unaffected.
  void ResetForTest();

 private:
  LockOrderValidator() = default;
};

inline void LockOrderOnAcquire(LockRank rank, const char* name) {
  if (rank != LockRank::kUnranked) {
    LockOrderValidator::Global()->OnAcquire(rank, name);
  }
}
inline void LockOrderOnTryAcquire(LockRank rank, const char* name) {
  if (rank != LockRank::kUnranked) {
    LockOrderValidator::Global()->OnTryAcquire(rank, name);
  }
}
inline void LockOrderOnRelease(LockRank rank, const char* name) {
  if (rank != LockRank::kUnranked) {
    LockOrderValidator::Global()->OnRelease(rank, name);
  }
}

#else  // !BTRIM_LOCK_ORDER_CHECKS

inline void LockOrderOnAcquire(LockRank, const char*) {}
inline void LockOrderOnTryAcquire(LockRank, const char*) {}
inline void LockOrderOnRelease(LockRank, const char*) {}

#endif  // BTRIM_LOCK_ORDER_CHECKS

}  // namespace btrim

#endif  // BTRIM_COMMON_LOCK_ORDER_H_
