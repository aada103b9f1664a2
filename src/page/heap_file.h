#ifndef BTRIM_PAGE_HEAP_FILE_H_
#define BTRIM_PAGE_HEAP_FILE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "page/buffer_cache.h"
#include "page/page.h"

namespace btrim {

/// A page-store heap for one partition.
///
/// The heap hands out RIDs from a monotonically increasing counter with a
/// fixed number of slots per page, decoupling *RID allocation* from *row
/// placement*:
///
///  * `AllocateRid()` is a single atomic increment — no I/O, no latch. It is
///    called on every insert, including inserts that go to the IMRS and
///    leave no page-store footprint (paper Sec. II: "new inserts go directly
///    to the IMRS").
///  * `Place(rid, payload)` later materializes the row at exactly that RID;
///    the Pack subsystem uses it when relocating cold IMRS rows.
///  * `Insert` (allocate + place) is the classic page-store-direct path used
///    when a partition's IMRS use is disabled by the partition tuner.
///
/// Because a RID never changes once allocated, B+Tree entries stay valid
/// across IMRS↔page-store moves; residency is resolved by the RID-map.
///
/// `slots_per_page` must be chosen so that `slots_per_page * max_row_size`
/// fits a page; Table computes it from the schema.
class HeapFile {
 public:
  HeapFile(uint16_t file_id, BufferCache* cache, uint16_t slots_per_page);

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  uint16_t file_id() const { return file_id_; }
  uint16_t slots_per_page() const { return slots_per_page_; }

  /// Reserves the next RID. Never fails; no I/O.
  Rid AllocateRid();

  /// Writes `payload` at the (previously allocated) `rid`. The target slot
  /// must be empty.
  Status Place(Rid rid, Slice payload, bool* contended = nullptr);

  /// Allocates a RID and places the payload (page-store-direct insert).
  Result<Rid> Insert(Slice payload);

  /// Reads the row at `rid` into `*out`. NotFound if the slot is empty
  /// (e.g. the row lives only in the IMRS, or was deleted).
  Status Read(Rid rid, std::string* out, bool* contended = nullptr);

  /// Replaces the payload at `rid`.
  Status Update(Rid rid, Slice payload, bool* contended = nullptr);

  /// Removes the row at `rid` (slot stays reserved for that RID forever).
  Status Delete(Rid rid, bool* contended = nullptr);

  /// True if a row is materialized at `rid`.
  bool Exists(Rid rid);

  /// Calls `fn(rid, payload)` for every materialized row. `fn` returns
  /// false to stop early. Not consistent with concurrent writers beyond
  /// page granularity (used by scans at read-uncommitted physical level;
  /// transactional visibility is layered above).
  Status ScanAll(const std::function<bool(Rid, Slice)>& fn);

  /// Highest RID ever allocated (exclusive row counter), used by recovery
  /// to restore the allocation cursor.
  uint64_t RowCursor() const {
    return next_row_.load(std::memory_order_relaxed);
  }
  void SetRowCursor(uint64_t cursor) {
    next_row_.store(cursor, std::memory_order_relaxed);
  }

  /// Number of pages spanned by allocated RIDs.
  uint32_t AllocatedPages() const;

  /// Scans the first `device_pages` pages (through the buffer cache) and
  /// returns the highest occupied row index + 1, or 0 when every slot is
  /// empty. Recovery uses this to lower-bound the allocation cursor by the
  /// durable page images: after a checkpoint drops the syslogs prefix, the
  /// checkpointed rows' RIDs appear in no log record, and a cursor restored
  /// from logs alone would both re-issue those RIDs to new inserts
  /// (silently overwriting durable rows) and stop ScanAll short of them.
  Result<uint64_t> MaxDurableRow(uint32_t device_pages);

 private:
  Rid RidForRow(uint64_t row) const {
    return Rid{file_id_, static_cast<uint32_t>(row / slots_per_page_),
               static_cast<uint16_t>(row % slots_per_page_)};
  }

  const uint16_t file_id_;
  BufferCache* const cache_;
  const uint16_t slots_per_page_;
  std::atomic<uint64_t> next_row_{0};
};

}  // namespace btrim

#endif  // BTRIM_PAGE_HEAP_FILE_H_
