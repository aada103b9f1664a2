#include "index/btree.h"

#include <cassert>
#include <cstring>
#include <optional>
#include <thread>

#include "common/coding.h"
#include "index/epoch.h"
#include "obs/metrics_registry.h"

namespace btrim {

namespace {

// Node page layout:
//   [NodeHeader][slot offsets (u16, ascending key order) -> ... <- cells]
// Cell: [u16 klen][key bytes][u64 value]. For internal nodes the value is a
// child page number; keys >= separator live under that child, and keys
// below the first separator live under header.leftmost_child.
struct NodeHeader {
  uint32_t magic;
  uint8_t level;  // 0 = leaf
  uint8_t flags;  // kNodeObsolete: unlinked, awaiting epoch reclamation
  uint16_t count;
  uint16_t cell_start;  // lowest offset used by cells
  uint16_t garbage;     // freed cell bytes
  uint32_t right_sibling;
  uint32_t leftmost_child;
};

constexpr uint32_t kNodeMagic = 0xB7EE0001u;
constexpr uint8_t kNodeObsolete = 0x1;
constexpr size_t kSlotBytes = sizeof(uint16_t);

class Node {
 public:
  explicit Node(char* data) : data_(data) {}

  void Init(uint8_t level) {
    memset(data_, 0, kPageSize);
    NodeHeader* h = header();
    h->magic = kNodeMagic;
    h->level = level;
    h->count = 0;
    h->cell_start = static_cast<uint16_t>(kPageSize);
    h->garbage = 0;
    h->right_sibling = BTree::kInvalidPage;
    h->leftmost_child = BTree::kInvalidPage;
  }

  bool IsInitialized() const { return header()->magic == kNodeMagic; }
  bool IsLeaf() const { return header()->level == 0; }
  uint8_t level() const { return header()->level; }
  uint16_t count() const { return header()->count; }

  bool IsObsolete() const { return (header()->flags & kNodeObsolete) != 0; }
  void SetObsolete() { header()->flags |= kNodeObsolete; }

  uint32_t right_sibling() const { return header()->right_sibling; }
  void set_right_sibling(uint32_t p) { header()->right_sibling = p; }
  uint32_t leftmost_child() const { return header()->leftmost_child; }
  void set_leftmost_child(uint32_t p) { header()->leftmost_child = p; }

  Slice KeyAt(uint16_t i) const {
    const char* cell = data_ + slots()[i];
    const uint16_t klen = DecodeFixed16(cell);
    return Slice(cell + 2, klen);
  }

  uint64_t ValueAt(uint16_t i) const {
    const char* cell = data_ + slots()[i];
    const uint16_t klen = DecodeFixed16(cell);
    return DecodeFixed64(cell + 2 + klen);
  }

  void SetValueAt(uint16_t i, uint64_t v) {
    char* cell = data_ + slots()[i];
    const uint16_t klen = DecodeFixed16(cell);
    EncodeFixed64(cell + 2 + klen, v);
  }

  /// First index i with KeyAt(i) >= key; count() if none.
  uint16_t LowerBound(Slice key) const {
    uint16_t lo = 0, hi = count();
    while (lo < hi) {
      const uint16_t mid = (lo + hi) / 2;
      if (KeyAt(mid).compare(key) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// First index i with KeyAt(i) > key; count() if none.
  uint16_t UpperBound(Slice key) const {
    uint16_t lo = 0, hi = count();
    while (lo < hi) {
      const uint16_t mid = (lo + hi) / 2;
      if (KeyAt(mid).compare(key) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Child page for `key` in an internal node.
  uint32_t ChildFor(Slice key) const {
    const uint16_t i = UpperBound(key);
    if (i == 0) return leftmost_child();
    return static_cast<uint32_t>(ValueAt(i - 1));
  }

  size_t CellBytes(Slice key) const { return 2 + key.size() + 8; }

  size_t ContiguousFree() const {
    const NodeHeader* h = header();
    const size_t dir_end =
        sizeof(NodeHeader) + static_cast<size_t>(h->count) * kSlotBytes;
    return h->cell_start - dir_end;
  }

  size_t FreeSpace() const { return ContiguousFree() + header()->garbage; }

  void Compact() {
    NodeHeader* h = header();
    std::vector<char> scratch(kPageSize);
    size_t write = kPageSize;
    uint16_t* dir = slots();
    for (uint16_t i = 0; i < h->count; ++i) {
      const char* cell = data_ + dir[i];
      const size_t len = 2 + DecodeFixed16(cell) + 8;
      write -= len;
      memcpy(scratch.data() + write, cell, len);
      dir[i] = static_cast<uint16_t>(write);
    }
    memcpy(data_ + write, scratch.data() + write, kPageSize - write);
    h->cell_start = static_cast<uint16_t>(write);
    h->garbage = 0;
  }

  /// Inserts (key, value) at position `pos`, shifting later slots right.
  /// Fails with NoSpace when the node must split.
  Status InsertAt(uint16_t pos, Slice key, uint64_t value) {
    NodeHeader* h = header();
    const size_t need = CellBytes(key) + kSlotBytes;
    if (ContiguousFree() < need) {
      if (FreeSpace() < need) return Status::NoSpace("node full");
      Compact();
      if (ContiguousFree() < need) return Status::NoSpace("node full");
    }
    h->cell_start = static_cast<uint16_t>(h->cell_start - CellBytes(key));
    char* cell = data_ + h->cell_start;
    EncodeFixed16(cell, static_cast<uint16_t>(key.size()));
    memcpy(cell + 2, key.data(), key.size());
    EncodeFixed64(cell + 2 + key.size(), value);

    uint16_t* dir = slots();
    memmove(dir + pos + 1, dir + pos,
            (h->count - pos) * kSlotBytes);
    dir[pos] = h->cell_start;
    h->count++;
    return Status::OK();
  }

  void RemoveAt(uint16_t pos) {
    NodeHeader* h = header();
    const char* cell = data_ + slots()[pos];
    h->garbage = static_cast<uint16_t>(h->garbage + 2 + DecodeFixed16(cell) + 8);
    uint16_t* dir = slots();
    memmove(dir + pos, dir + pos + 1,
            (h->count - pos - 1) * kSlotBytes);
    h->count--;
  }

  /// Moves entries [from, count) into `dst` (appending in order) and
  /// truncates this node.
  void MoveTail(uint16_t from, Node* dst) {
    NodeHeader* h = header();
    for (uint16_t i = from; i < h->count; ++i) {
      Status s = dst->InsertAt(dst->count(), KeyAt(i), ValueAt(i));
      assert(s.ok());
      (void)s;
    }
    // Mark moved cells as garbage.
    for (uint16_t i = from; i < h->count; ++i) {
      const char* cell = data_ + slots()[i];
      h->garbage =
          static_cast<uint16_t>(h->garbage + 2 + DecodeFixed16(cell) + 8);
    }
    h->count = from;
  }

 private:
  NodeHeader* header() { return reinterpret_cast<NodeHeader*>(data_); }
  const NodeHeader* header() const {
    return reinterpret_cast<const NodeHeader*>(data_);
  }
  uint16_t* slots() {
    return reinterpret_cast<uint16_t*>(data_ + sizeof(NodeHeader));
  }
  const uint16_t* slots() const {
    return reinterpret_cast<const uint16_t*>(data_ + sizeof(NodeHeader));
  }

  char* data_;
};

inline uint32_t Ver32(uint64_t v) {
  return static_cast<uint32_t>(v & 0xffffffffull);
}

}  // namespace

BTree::BTree(uint16_t file_id, BufferCache* cache, bool unique)
    : file_id_(file_id), cache_(cache), unique_(unique) {}

BTree::~BTree() = default;

std::atomic<uint64_t>& BTree::VersionCell(uint32_t page_no) const {
  return versions_.At(page_no);
}

uint64_t BTree::LoadVersion(uint32_t page_no) const {
  return VersionCell(page_no).load(std::memory_order_acquire);
}

void BTree::BumpVersion(uint32_t page_no) {
  VersionCell(page_no).fetch_add(1, std::memory_order_acq_rel);
}

uint32_t BTree::AllocatePage() {
  {
    SpinLockGuard g(pages_mu_);
    if (!retired_.empty()) DrainRetiredLocked();
    if (!free_pages_.empty()) {
      const uint32_t p = free_pages_.back();
      free_pages_.pop_back();
      pages_reused_.Inc();
      return p;
    }
  }
  const uint32_t p = next_page_.fetch_add(1, std::memory_order_relaxed);
  // Pre-create the version chunk while the page is still unreachable, so
  // descents can load versions without allocation checks.
  VersionCell(p);
  return p;
}

void BTree::RetirePage(uint32_t page_no) {
  const uint64_t epoch = IndexEpochManager::Global()->Advance();
  SpinLockGuard g(pages_mu_);
  retired_.push_back(RetiredPage{page_no, epoch});
  pages_retired_.Inc();
}

int64_t BTree::DrainRetiredLocked() {
  if (retired_.empty()) return 0;
  const uint64_t min_active = IndexEpochManager::Global()->MinActive();
  int64_t reclaimed = 0;
  size_t w = 0;
  for (size_t i = 0; i < retired_.size(); ++i) {
    // A reader that can still reach this page entered strictly before the
    // retire stamp (see IndexEpochManager), so stamp <= min-active-epoch
    // proves no live descent holds its number.
    if (retired_[i].epoch <= min_active) {
      free_pages_.push_back(retired_[i].page_no);
      ++reclaimed;
    } else {
      retired_[w++] = retired_[i];
    }
  }
  retired_.resize(w);
  if (reclaimed > 0) pages_reclaimed_.Add(reclaimed);
  return reclaimed;
}

int64_t BTree::DrainRetired() {
  SpinLockGuard g(pages_mu_);
  return DrainRetiredLocked();
}

Status BTree::Create() {
  const uint32_t root = AllocatePage();
  Result<PageGuard> guard =
      cache_->FixPage(PageId{file_id_, root}, LatchMode::kExclusive);
  if (!guard.ok()) return guard.status();
  Node node(guard->data());
  node.Init(0);
  guard->MarkDirty();
  BumpVersion(root);
  root_meta_.store(PackRootMeta(root, LoadVersion(root)),
                   std::memory_order_release);
  return Status::OK();
}

std::string BTree::MakeNonUniqueKey(Slice user_key, Rid rid) {
  std::string k(user_key.data(), user_key.size());
  PutBigEndian64(&k, rid.Encode());
  return k;
}

Result<PageGuard> BTree::DescendToLeaf(Slice key, LatchMode leaf_mode,
                                       uint32_t* leaf_no) const {
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) {
      olc_restarts_.Inc();
      if ((attempt & 63) == 63) std::this_thread::yield();
    }
    const uint64_t meta = root_meta_.load(std::memory_order_acquire);
    uint32_t page_no = static_cast<uint32_t>(meta >> 32);
    // Height hint: when the whole tree is one leaf, fix the root directly
    // in leaf mode (there is no way to upgrade a shared latch). The hint is
    // verified below like every other routing decision.
    LatchMode mode = height_.load(std::memory_order_acquire) == 1
                         ? leaf_mode
                         : LatchMode::kShared;
    Result<PageGuard> fixed =
        cache_->FixPage(PageId{file_id_, page_no}, mode);
    if (!fixed.ok()) return fixed.status();
    PageGuard cur = std::move(*fixed);
    if (Ver32(LoadVersion(page_no)) != Ver32(meta)) {
      continue;  // the root split or the tree grew; restart
    }
    bool restart = false;
    while (!restart) {
      Node node(cur.data());
      if (!node.IsInitialized() || node.IsObsolete()) {
        restart = true;
        break;
      }
      if (node.IsLeaf()) {
        if (mode != leaf_mode) {
          restart = true;  // stale height hint left us under-latched
          break;
        }
        *leaf_no = page_no;
        return cur;
      }
      // Capture the routing decision and the child's version while still
      // holding the parent's latch; validate after re-latching the child.
      // Structural changes that would invalidate the capture (split,
      // unlink, reuse) bump the child's version under its exclusive latch
      // while also holding the parent's, so they cannot overlap either
      // side of this window.
      const uint32_t child = node.ChildFor(key);
      if (child == kInvalidPage) {
        restart = true;
        break;
      }
      const uint64_t child_version = LoadVersion(child);
      const LatchMode next_mode =
          node.level() == 1 ? leaf_mode : LatchMode::kShared;
      cur.Release();
      Result<PageGuard> next =
          cache_->FixPage(PageId{file_id_, child}, next_mode);
      if (!next.ok()) return next.status();
      if (LoadVersion(child) != child_version) {
        restart = true;
        break;
      }
      cur = std::move(*next);
      page_no = child;
      mode = next_mode;
    }
  }
}

Status BTree::Insert(Slice key, uint64_t value) {
  if (key.size() > kMaxKeySize) {
    return Status::InvalidArgument("key too large");
  }
  inserts_.Inc();
  // Running max of inserted key sizes keeps the pessimistic path's
  // "absorbs one separator" bound tight (separators are leaf-key copies).
  uint32_t cur_max = max_key_size_.load(std::memory_order_relaxed);
  while (key.size() > cur_max &&
         !max_key_size_.compare_exchange_weak(
             cur_max, static_cast<uint32_t>(key.size()),
             std::memory_order_relaxed)) {
  }
  IndexEpochGuard epoch;
  uint32_t leaf_no = 0;
  Result<PageGuard> leaf_guard =
      DescendToLeaf(key, LatchMode::kExclusive, &leaf_no);
  if (!leaf_guard.ok()) return leaf_guard.status();
  Node node(leaf_guard->data());
  const uint16_t pos = node.LowerBound(key);
  if (unique_ && pos < node.count() && node.KeyAt(pos) == key) {
    return Status::AlreadyExists("duplicate key");
  }
  Status s = node.InsertAt(pos, key, value);
  if (s.ok()) {
    leaf_guard->MarkDirty();
    return Status::OK();
  }
  if (!s.IsNoSpace()) return s;
  leaf_guard->Release();
  return InsertPessimistic(key, value);
}

Status BTree::SplitChild(PageGuard* parent_guard, PageGuard* node_guard,
                         uint32_t* node_no, Slice key) {
  // Both pages are latched exclusive and the parent is guaranteed to absorb
  // one separator. The fresh right sibling is unreachable until the
  // separator lands in the parent, and both links appear in the same
  // latched section, so concurrent descents see either the pre-split state
  // (their version capture still validates) or the bumped version.
  splits_.Inc();
  const uint32_t right_no = AllocatePage();
  Result<PageGuard> right_guard =
      cache_->FixPage(PageId{file_id_, right_no}, LatchMode::kExclusive);
  if (!right_guard.ok()) return right_guard.status();
  Node node(node_guard->data());
  Node right(right_guard->data());
  const uint8_t level = node.level();
  right.Init(level);
  BumpVersion(right_no);  // new identity for a possibly reused page number
  std::string sep;
  const uint16_t mid = node.count() / 2;
  if (level == 0) {
    node.MoveTail(mid, &right);
    right.set_right_sibling(node.right_sibling());
    node.set_right_sibling(right_no);
    sep = right.KeyAt(0).ToString();
  } else {
    // Promote the separator at mid; its child becomes the right node's
    // leftmost child.
    sep = node.KeyAt(mid).ToString();
    right.set_leftmost_child(static_cast<uint32_t>(node.ValueAt(mid)));
    node.MoveTail(mid + 1, &right);
    node.RemoveAt(mid);
  }
  // The left half's key coverage shrank: invalidate in-flight captures.
  BumpVersion(*node_no);
  Node parent(parent_guard->data());
  Status s = parent.InsertAt(parent.LowerBound(Slice(sep)), Slice(sep),
                             right_no);
  assert(s.ok());  // the caller pre-split any parent that lacked room
  if (!s.ok()) return Status::Corruption("separator insert failed");
  node_guard->MarkDirty();
  right_guard->MarkDirty();
  parent_guard->MarkDirty();
  if (key.compare(Slice(sep)) >= 0) {
    *node_guard = std::move(*right_guard);
    *node_no = right_no;
  }
  return Status::OK();
}

Status BTree::InsertPessimistic(Slice key, uint64_t value) {
  // Latch-coupling descent with preemptive splits: every full node on the
  // path splits while its parent (held exclusive, with guaranteed room) is
  // still latched, so no separator insert can fail and at most three
  // latches (parent, node, fresh sibling) are ever held.
  pessimistic_.Inc();
  const size_t leaf_need = 2 + key.size() + 8 + kSlotBytes;
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) {
      olc_restarts_.Inc();
      if ((attempt & 63) == 63) std::this_thread::yield();
    }
    const size_t sep_need =
        2 + max_key_size_.load(std::memory_order_relaxed) + 8 + kSlotBytes;
    const uint64_t meta = root_meta_.load(std::memory_order_acquire);
    const uint32_t root_no = static_cast<uint32_t>(meta >> 32);
    Result<PageGuard> root_guard =
        cache_->FixPage(PageId{file_id_, root_no}, LatchMode::kExclusive);
    if (!root_guard.ok()) return root_guard.status();
    if (Ver32(LoadVersion(root_no)) != Ver32(meta)) continue;

    PageGuard parent;  // invalid while `cur` is the tree's top
    PageGuard cur = std::move(*root_guard);
    uint32_t cur_no = root_no;
    {
      Node root(cur.data());
      const size_t need = root.IsLeaf() ? leaf_need : sep_need;
      if (root.FreeSpace() < need) {
        // Grow first so the root splits like any other node. The new root
        // starts with the old root as its only child and is published
        // immediately: the old root's coverage is unchanged, so stale
        // root_meta_ readers stay correct until it actually splits. The
        // version bump retires the old root's *root identity* — a
        // concurrent pessimistic writer validating against stale meta
        // restarts instead of growing a second root.
        const uint32_t new_root_no = AllocatePage();
        Result<PageGuard> grow_guard = cache_->FixPage(
            PageId{file_id_, new_root_no}, LatchMode::kExclusive);
        if (!grow_guard.ok()) return grow_guard.status();
        Node new_root(grow_guard->data());
        new_root.Init(static_cast<uint8_t>(root.level() + 1));
        new_root.set_leftmost_child(cur_no);
        BumpVersion(new_root_no);
        grow_guard->MarkDirty();
        BumpVersion(cur_no);
        root_meta_.store(
            PackRootMeta(new_root_no, LoadVersion(new_root_no)),
            std::memory_order_release);
        height_.fetch_add(1, std::memory_order_acq_rel);
        parent = std::move(*grow_guard);
      }
    }
    while (true) {
      Node node(cur.data());
      if (node.FreeSpace() < (node.IsLeaf() ? leaf_need : sep_need)) {
        Status s = SplitChild(&parent, &cur, &cur_no, key);
        if (!s.ok()) return s;
        continue;  // re-check the half that now owns the key
      }
      if (node.IsLeaf()) break;
      const uint32_t child = node.ChildFor(key);
      Result<PageGuard> child_guard =
          cache_->FixPage(PageId{file_id_, child}, LatchMode::kExclusive);
      if (!child_guard.ok()) return child_guard.status();
      parent = std::move(cur);  // releases the grandparent
      cur = std::move(*child_guard);
      cur_no = child;
    }
    Node leaf(cur.data());
    const uint16_t pos = leaf.LowerBound(key);
    if (unique_ && pos < leaf.count() && leaf.KeyAt(pos) == key) {
      return Status::AlreadyExists("duplicate key");
    }
    Status s = leaf.InsertAt(pos, key, value);
    if (!s.ok()) return s;  // unreachable: space was ensured above
    cur.MarkDirty();
    return Status::OK();
  }
}

Result<uint64_t> BTree::Search(Slice key) const {
  searches_.Inc();
  IndexEpochGuard epoch;
  uint32_t leaf_no = 0;
  Result<PageGuard> leaf_guard =
      DescendToLeaf(key, LatchMode::kShared, &leaf_no);
  if (!leaf_guard.ok()) return leaf_guard.status();
  Node node(leaf_guard->data());
  const uint16_t pos = node.LowerBound(key);
  if (pos < node.count() && node.KeyAt(pos) == key) {
    return node.ValueAt(pos);
  }
  return Status::NotFound("key absent");
}

Status BTree::UpdateValue(Slice key, uint64_t value) {
  IndexEpochGuard epoch;
  uint32_t leaf_no = 0;
  Result<PageGuard> leaf_guard =
      DescendToLeaf(key, LatchMode::kExclusive, &leaf_no);
  if (!leaf_guard.ok()) return leaf_guard.status();
  Node node(leaf_guard->data());
  const uint16_t pos = node.LowerBound(key);
  if (pos < node.count() && node.KeyAt(pos) == key) {
    node.SetValueAt(pos, value);
    leaf_guard->MarkDirty();
    return Status::OK();
  }
  return Status::NotFound("key absent");
}

Status BTree::Delete(Slice key) {
  deletes_.Inc();
  IndexEpochGuard epoch;
  uint32_t leaf_no = 0;
  Result<PageGuard> leaf_guard =
      DescendToLeaf(key, LatchMode::kExclusive, &leaf_no);
  if (!leaf_guard.ok()) return leaf_guard.status();
  Node node(leaf_guard->data());
  const uint16_t pos = node.LowerBound(key);
  if (pos >= node.count() || !(node.KeyAt(pos) == key)) {
    return Status::NotFound("key absent");
  }
  if (node.count() > 1) {
    node.RemoveAt(pos);
    leaf_guard->MarkDirty();
    return Status::OK();
  }
  // Removing the last entry: unlink the emptied leaf under parent + sibling
  // latches so its page can be recycled.
  leaf_guard->Release();
  return DeletePessimistic(key);
}

Status BTree::DeletePessimistic(Slice key) {
  pessimistic_.Inc();
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) {
      olc_restarts_.Inc();
      if ((attempt & 63) == 63) std::this_thread::yield();
    }
    const uint64_t meta = root_meta_.load(std::memory_order_acquire);
    const uint32_t root_no = static_cast<uint32_t>(meta >> 32);
    Result<PageGuard> root_guard =
        cache_->FixPage(PageId{file_id_, root_no}, LatchMode::kExclusive);
    if (!root_guard.ok()) return root_guard.status();
    if (Ver32(LoadVersion(root_no)) != Ver32(meta)) continue;

    // Couple down to the leaf keeping only its direct parent latched (no
    // separator ever cascades: internal pages are never merged).
    PageGuard parent;
    PageGuard cur = std::move(*root_guard);
    uint32_t cur_no = root_no;
    while (true) {
      Node node(cur.data());
      if (node.IsLeaf()) break;
      const uint32_t child = node.ChildFor(key);
      Result<PageGuard> child_guard =
          cache_->FixPage(PageId{file_id_, child}, LatchMode::kExclusive);
      if (!child_guard.ok()) return child_guard.status();
      parent = std::move(cur);
      cur = std::move(*child_guard);
      cur_no = child;
    }
    Node leaf(cur.data());
    const uint16_t pos = leaf.LowerBound(key);
    if (pos >= leaf.count() || !(leaf.KeyAt(pos) == key)) {
      return Status::NotFound("key absent");
    }
    if (leaf.count() > 1 || !parent.valid()) {
      // Re-filled since the optimistic attempt, or the leaf is the root:
      // plain removal (the root may sit empty).
      leaf.RemoveAt(pos);
      cur.MarkDirty();
      return Status::OK();
    }
    // Unlink: locate this leaf in its parent. Only a non-leftmost child is
    // unlinked — it always has a same-parent left sibling whose chain
    // pointer we can rewire while the parent latch serializes all
    // structure changes below this parent.
    Node pnode(parent.data());
    if (pnode.leftmost_child() == cur_no) {
      leaf.RemoveAt(pos);
      cur.MarkDirty();
      return Status::OK();  // leftmost leaves stay linked while empty
    }
    uint16_t j = 0;
    bool found = false;
    for (; j < pnode.count(); ++j) {
      if (static_cast<uint32_t>(pnode.ValueAt(j)) == cur_no) {
        found = true;
        break;
      }
    }
    assert(found);
    if (!found) return Status::Corruption("leaf missing from parent");
    const uint32_t left_no =
        j == 0 ? pnode.leftmost_child()
               : static_cast<uint32_t>(pnode.ValueAt(j - 1));
    Result<PageGuard> left_guard =
        cache_->FixPage(PageId{file_id_, left_no}, LatchMode::kExclusive);
    if (!left_guard.ok()) {
      leaf.RemoveAt(pos);  // degrade gracefully: remove without unlinking
      cur.MarkDirty();
      return Status::OK();
    }
    Node left(left_guard->data());
    leaf.RemoveAt(pos);
    left.set_right_sibling(leaf.right_sibling());
    pnode.RemoveAt(j);
    leaf.SetObsolete();
    BumpVersion(cur_no);
    cur.MarkDirty();
    left_guard->MarkDirty();
    parent.MarkDirty();
    left_guard->Release();
    cur.Release();
    parent.Release();
    RetirePage(cur_no);
    return Status::OK();
  }
}

Status BTree::Scan(Slice lower, Slice upper, ScanVisitor visitor) const {
  scans_.Inc();
  // Pinned while pages are fixed and copied, not while the visitor runs: a
  // sibling hop revalidates the captured page number by its version, which
  // an unlink or a reuse bumps, so a long visitor holds back no reclamation.
  std::optional<IndexEpochGuard> epoch(std::in_place);
  // Resume cursor: the last visited key (exclusive) or the scan's lower
  // bound (inclusive). A failed sibling-hop validation re-descends to the
  // cursor, so restarts never visit an entry twice.
  std::string resume(lower.data(), lower.size());
  bool resume_exclusive = false;
  // One leaf's in-range entries, copied out so the visitor runs unlatched:
  // the keys back to back in `keys`, and (end offset in `keys`, value) per
  // entry. Both buffers are reused across leaves.
  std::string keys;
  std::vector<std::pair<size_t, uint64_t>> entries;
  for (;;) {
    uint32_t leaf_no = 0;
    Result<PageGuard> fixed =
        DescendToLeaf(Slice(resume), LatchMode::kShared, &leaf_no);
    if (!fixed.ok()) return fixed.status();
    PageGuard cur = std::move(*fixed);
    for (;;) {
      Node node(cur.data());
      uint16_t pos = resume_exclusive ? node.UpperBound(Slice(resume))
                                      : node.LowerBound(Slice(resume));
      keys.clear();
      entries.clear();
      for (; pos < node.count(); ++pos) {
        Slice k = node.KeyAt(pos);
        if (!upper.empty() && k.compare(upper) >= 0) break;
        keys.append(k.data(), k.size());
        entries.emplace_back(keys.size(), node.ValueAt(pos));
      }
      // A leaf left unfinished holds the upper bound: nothing to hop to.
      const uint32_t next =
          pos < node.count() ? kInvalidPage : node.right_sibling();
      // Capture the sibling's version under this leaf's latch; validate
      // after hopping, exactly like a parent-to-child link.
      const uint64_t next_version =
          next == kInvalidPage ? 0 : LoadVersion(next);
      cur.Release();
      epoch.reset();
      size_t begin = 0;
      for (const auto& [end, value] : entries) {
        const Slice k(keys.data() + begin, end - begin);
        if (!visitor(k, value)) return Status::OK();
        resume.assign(k.data(), k.size());
        resume_exclusive = true;
        begin = end;
      }
      if (next == kInvalidPage) return Status::OK();
      epoch.emplace();
      Result<PageGuard> next_guard =
          cache_->FixPage(PageId{file_id_, next}, LatchMode::kShared);
      if (!next_guard.ok()) return next_guard.status();
      if (LoadVersion(next) != next_version ||
          Node(next_guard->data()).IsObsolete()) {
        break;
      }
      cur = std::move(*next_guard);
    }
    olc_restarts_.Inc();
  }
}

Status BTree::RegisterMetrics(obs::MetricsRegistry* registry,
                              const obs::MetricLabels& labels) const {
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("index.inserts", labels, &inserts_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("index.deletes", labels, &deletes_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("index.searches", labels, &searches_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("index.scans", labels, &scans_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("index.splits", labels, &splits_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("index.olc_restarts", labels, &olc_restarts_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("index.pessimistic_descents",
                                                  labels, &pessimistic_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("index.pages_retired",
                                                  labels, &pages_retired_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("index.pages_reclaimed",
                                                  labels, &pages_reclaimed_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("index.pages_reused",
                                                  labels, &pages_reused_));
  return Status::OK();
}

}  // namespace btrim
