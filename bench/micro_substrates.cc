// Micro-benchmarks (google-benchmark) of the substrates the paper's design
// depends on: per-CPU-style sharded counters vs a single atomic (Sec. V.A),
// the fragment memory manager, the RID-map, the hash index, the B+Tree,
// and the lock manager.

#include <atomic>

#include <benchmark/benchmark.h>

#include "alloc/fragment_allocator.h"
#include "common/coding.h"
#include "common/counters.h"
#include "imrs/rid_map.h"
#include "index/btree.h"
#include "index/hash_index.h"
#include "page/device.h"
#include "txn/lock_manager.h"

namespace btrim {
namespace {

// --- counters: the Sec. V.A claim -----------------------------------------------

void BM_SingleAtomicCounter(benchmark::State& state) {
  static std::atomic<int64_t> counter{0};
  for (auto _ : state) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }
}
BENCHMARK(BM_SingleAtomicCounter)->Threads(1)->Threads(4);

void BM_ShardedCounter(benchmark::State& state) {
  static ShardedCounter counter;
  for (auto _ : state) {
    counter.Inc();
  }
}
BENCHMARK(BM_ShardedCounter)->Threads(1)->Threads(4);

void BM_ShardedCounterLoad(benchmark::State& state) {
  static ShardedCounter counter;
  counter.Add(123);
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.Load());
  }
}
BENCHMARK(BM_ShardedCounterLoad);

// --- fragment allocator -----------------------------------------------------------

void BM_FragmentAllocFree(benchmark::State& state) {
  FragmentAllocator alloc(64 << 20);
  const size_t size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    void* p = alloc.Allocate(size);
    benchmark::DoNotOptimize(p);
    alloc.Free(p);
  }
}
BENCHMARK(BM_FragmentAllocFree)->Arg(64)->Arg(256)->Arg(1024);

void BM_FragmentChurn(benchmark::State& state) {
  FragmentAllocator alloc(64 << 20);
  std::vector<void*> live(256, nullptr);
  size_t i = 0;
  for (auto _ : state) {
    const size_t slot = i++ % live.size();
    if (live[slot] != nullptr) alloc.Free(live[slot]);
    live[slot] = alloc.Allocate(64 + (i % 512));
  }
  for (void* p : live) {
    if (p != nullptr) alloc.Free(p);
  }
}
BENCHMARK(BM_FragmentChurn);

// --- RID-map ----------------------------------------------------------------------

void BM_RidMapLookup(benchmark::State& state) {
  static RidMap* map = [] {
    auto* m = new RidMap();
    static std::vector<ImrsRow>* rows = new std::vector<ImrsRow>(10000);
    for (uint32_t i = 0; i < 10000; ++i) {
      m->Insert(Rid{1, i, 0}, &(*rows)[i]);
    }
    return m;
  }();
  uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map->Lookup(Rid{1, i++ % 10000, 0}));
  }
}
BENCHMARK(BM_RidMapLookup)->Threads(1)->Threads(4);

// --- hash index --------------------------------------------------------------------

void BM_HashIndexLookup(benchmark::State& state) {
  static HashIndex<uint64_t>* index = [] {
    auto* idx = new HashIndex<uint64_t>(1 << 14);
    for (uint64_t i = 0; i < 10000; ++i) {
      std::string key;
      PutBigEndian64(&key, i);
      idx->Upsert(key, i);
    }
    return idx;
  }();
  uint64_t i = 0;
  for (auto _ : state) {
    std::string key;
    PutBigEndian64(&key, i++ % 10000);
    benchmark::DoNotOptimize(index->Lookup(key));
  }
}
BENCHMARK(BM_HashIndexLookup)->Threads(1)->Threads(4);

// --- B+Tree ------------------------------------------------------------------------

void BM_BTreeSearch(benchmark::State& state) {
  static BufferCache* cache = new BufferCache(4096);
  static BTree* tree = [] {
    static MemDevice* dev = new MemDevice();
    cache->AttachDevice(1, dev);
    auto* t = new BTree(1, cache, true);
    Status s = t->Create();
    (void)s;
    for (uint64_t i = 0; i < 50000; ++i) {
      std::string key;
      PutBigEndian64(&key, i);
      s = t->Insert(key, i);
    }
    return t;
  }();
  uint64_t i = 0;
  for (auto _ : state) {
    std::string key;
    PutBigEndian64(&key, (i += 7919) % 50000);
    benchmark::DoNotOptimize(tree->Search(key));
  }
}
BENCHMARK(BM_BTreeSearch);

void BM_BTreeInsert(benchmark::State& state) {
  MemDevice dev;
  BufferCache cache(4096);
  cache.AttachDevice(1, &dev);
  BTree tree(1, &cache, true);
  Status s = tree.Create();
  (void)s;
  uint64_t i = 0;
  for (auto _ : state) {
    std::string key;
    PutBigEndian64(&key, i++);
    benchmark::DoNotOptimize(tree.Insert(key, i));
  }
}
BENCHMARK(BM_BTreeInsert);

// --- lock manager ---------------------------------------------------------------------

void BM_LockAcquireRelease(benchmark::State& state) {
  static LockManager* lm = new LockManager();
  const uint64_t txn =
      static_cast<uint64_t>(state.thread_index()) + 1;
  uint64_t i = 0;
  for (auto _ : state) {
    // Distinct lock ids per thread: measures the uncontended fast path.
    const uint64_t lock_id = txn * 1000000 + (i++ % 64);
    Status s = lm->Acquire(txn, lock_id, LockMode::kExclusive, 10);
    benchmark::DoNotOptimize(s);
    lm->Release(txn, lock_id);
  }
}
BENCHMARK(BM_LockAcquireRelease)->Threads(1)->Threads(4);

void BM_LockFreshIds(benchmark::State& state) {
  static LockManager* lm = new LockManager();
  const uint64_t txn =
      static_cast<uint64_t>(state.thread_index()) + 1;
  // Every iteration locks an id no one has locked before, as a TPC-C
  // insert does for each new row: the lock table must create an entry for
  // it and later sweep that entry away.
  uint64_t next_id = txn << 40;
  for (auto _ : state) {
    const uint64_t lock_id = next_id++;
    Status s = lm->Acquire(txn, lock_id, LockMode::kExclusive, 10);
    benchmark::DoNotOptimize(s);
    lm->Release(txn, lock_id);
  }
}
BENCHMARK(BM_LockFreshIds)->Threads(1)->Threads(4);

}  // namespace
}  // namespace btrim

BENCHMARK_MAIN();
