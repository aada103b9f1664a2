#ifndef BTRIM_INDEX_BTREE_H_
#define BTRIM_INDEX_BTREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/dense_directory.h"
#include "common/slice.h"
#include "common/spinlock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "page/buffer_cache.h"
#include "page/page.h"

namespace btrim {

namespace obs {
class MetricsRegistry;
struct MetricLabels;
}  // namespace obs

/// Page-based B+Tree mapping variable-length byte-string keys (memcmp
/// order) to 64-bit values (encoded RIDs).
///
/// This is the paper's "page-based BTree index" (Sec. II): its pages live in
/// the shared buffer cache, so index traffic competes for frames and
/// produces latch-contention signals exactly like heap traffic. Entries
/// store RIDs; they are *not* touched when a row moves between the IMRS and
/// the page store — residency is resolved through the RID-map at access
/// time.
///
/// Concurrency (DESIGN.md Sec. 13) — optimistic lock coupling layered on
/// the buffer-cache frame latches:
///  - every page carries a version counter (outside the page image, in a
///    chunked atomic table keyed by page number); structural changes that
///    shrink a page's key coverage (split, unlink, reuse) bump it under the
///    page's exclusive latch;
///  - descents hold at most one shared frame latch at a time: the child
///    page number and its version are captured under the parent's latch,
///    the parent is released, the child is fixed, and the version is
///    re-validated — a mismatch restarts the descent from the root;
///  - writers descend optimistically and latch only the leaf; a full leaf
///    falls back to a pessimistic latch-coupling descent that retains
///    exclusive latches on the unsafe ancestor suffix and splits bottom-up;
///  - the former tree-wide tree_lock_ is retired: the root is published as
///    a single atomic word (page number + truncated version) that readers
///    validate like any other link;
///  - unlinked leaves are recycled through epoch-based reclamation
///    (index/epoch.h) so in-flight descents never see a reused frame.
///
/// Page image reads and writes always happen under the frame latch, so the
/// protocol is free of data races by construction (TSan-clean), unlike
/// classic OLC's unlatched optimistic reads.
///
/// For a non-unique index, callers append the RID to the key to make
/// entries distinct (see MakeNonUniqueKey); lookups then use prefix scans.
///
/// Deletion unlinks a leaf once it empties (no page merging); TPC-C's
/// delete pattern (new_orders queue) retires drained leaves which later
/// splits reuse.
class BTree {
 public:
  static constexpr size_t kMaxKeySize = 1024;
  static constexpr uint32_t kInvalidPage = 0xffffffffu;

  /// `unique`: reject duplicate keys on insert.
  BTree(uint16_t file_id, BufferCache* cache, bool unique);
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// One-time formatting of the (empty) root page. Call once per tree
  /// lifetime before first use.
  Status Create();

  Status Insert(Slice key, uint64_t value);

  /// Removes the entry with exactly `key`. NotFound if absent.
  Status Delete(Slice key);

  /// Point lookup (unique trees). NotFound if absent.
  Result<uint64_t> Search(Slice key) const;

  /// In-place value update for an existing key. NotFound if absent.
  Status UpdateValue(Slice key, uint64_t value);

  /// Visitor of one index entry; returns false to stop the scan.
  using ScanVisitor = std::function<bool(Slice key, uint64_t value)>;

  /// Hands every entry with lower <= key < upper (empty upper: to the end)
  /// to `visitor` in key order, `key` valid only during the call. Each
  /// leaf's entries are copied out and its latch and read epoch released
  /// before the visitor runs, so the visitor may block or call back into
  /// the tree without holding back the reclamation of retired pages.
  Status Scan(Slice lower, Slice upper, const ScanVisitor& visitor) const;

  /// Key for a non-unique index entry: user key + big-endian encoded RID.
  static std::string MakeNonUniqueKey(Slice user_key, Rid rid);

  /// Moves retired pages whose retire epoch has been passed by every active
  /// reader onto the free list. Called opportunistically by AllocatePage and
  /// on the background GC cadence (ImrsGc reclaim hooks). Returns pages
  /// reclaimed.
  int64_t DrainRetired();

  bool unique() const { return unique_; }
  uint16_t file_id() const { return file_id_; }

  /// Current tree height and pages ever allocated from the file (the rest
  /// of the tree's counters live in the metrics registry as index.*).
  int64_t height() const { return height_.load(std::memory_order_relaxed); }
  int64_t pages_allocated() const {
    return next_page_.load(std::memory_order_relaxed);
  }

  /// Registers the per-tree counters into the unified metrics registry
  /// under `index.*` with the given labels.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const obs::MetricLabels& labels) const;

 private:
  // Version table: one atomic per page number in a DenseArray, so it grows
  // without relocating live atomics. 4096 segments x 4096 entries covers
  // 16M pages (128 GiB of index) per tree.
  using VersionTable = DenseArray<uint64_t, 12, 4096>;

  struct RetiredPage {
    uint32_t page_no;
    uint64_t epoch;
  };

  // root_meta_ packs (root page number << 32 | low 32 bits of the root's
  // version). Readers validate the truncated version after fixing the root;
  // writers republish under the old root's exclusive latch whenever the
  // root splits. 2^32 version wrap between a reader's load and its validate
  // is not a practical concern (it would need 4G structural changes of the
  // root page inside one descent).
  static uint64_t PackRootMeta(uint32_t page_no, uint64_t version) {
    return (static_cast<uint64_t>(page_no) << 32) |
           (version & 0xffffffffull);
  }

  std::atomic<uint64_t>& VersionCell(uint32_t page_no) const;
  uint64_t LoadVersion(uint32_t page_no) const;
  /// Must be called with `page_no` latched exclusive (or unreachable).
  void BumpVersion(uint32_t page_no);

  /// Allocates a page number, preferring reclaimed pages. Safe to call
  /// while holding frame latches (pages_mu_ ranks inside kPageFrame).
  uint32_t AllocatePage();
  void RetirePage(uint32_t page_no);
  int64_t DrainRetiredLocked() BTRIM_REQUIRES(pages_mu_);

  /// Optimistic shared-latch descent to the leaf owning `key`. On success
  /// `*leaf_no` names the leaf and the returned guard holds it in
  /// `leaf_mode`. Version conflicts restart internally (counted); only
  /// buffer-cache errors surface.
  Result<PageGuard> DescendToLeaf(Slice key, LatchMode leaf_mode,
                                  uint32_t* leaf_no) const;

  /// Latch-coupling insert fallback for a full leaf: descends top-down
  /// holding parent + current exclusive and preemptively splits any node
  /// without room, so separator inserts into the parent can never fail.
  Status InsertPessimistic(Slice key, uint64_t value);

  /// Splits `*node_guard` (latched exclusive) into itself plus a fresh
  /// right sibling, inserting the separator into `*parent_guard` (latched
  /// exclusive, guaranteed room). On return `*node_guard`/`*node_no` track
  /// the half that covers `key`.
  Status SplitChild(PageGuard* parent_guard, PageGuard* node_guard,
                    uint32_t* node_no, Slice key);

  /// Latch-coupling delete fallback for a leaf that would empty: unlinks
  /// the leaf from its parent and same-parent left sibling and retires it.
  Status DeletePessimistic(Slice key);

  const uint16_t file_id_;
  BufferCache* const cache_;
  const bool unique_;

  std::atomic<uint64_t> root_meta_{0};
  std::atomic<uint32_t> next_page_{0};
  std::atomic<int64_t> height_{1};
  // Largest key ever inserted: makes the pessimistic path's "this internal
  // node can absorb one more separator" bound tight (separators are copies
  // of leaf keys, so no separator can exceed it).
  std::atomic<uint32_t> max_key_size_{8};

  mutable VersionTable versions_;

  mutable SpinLock pages_mu_{LockRank::kIndexFreeList, "index.page_freelist"};
  std::vector<uint32_t> free_pages_ BTRIM_GUARDED_BY(pages_mu_);
  std::vector<RetiredPage> retired_ BTRIM_GUARDED_BY(pages_mu_);

  mutable ShardedCounter inserts_, deletes_, searches_, scans_, splits_;
  mutable ShardedCounter olc_restarts_, pessimistic_, pages_retired_,
      pages_reclaimed_, pages_reused_;
};

}  // namespace btrim

#endif  // BTRIM_INDEX_BTREE_H_
