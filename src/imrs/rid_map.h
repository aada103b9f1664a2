#ifndef BTRIM_IMRS_RID_MAP_H_
#define BTRIM_IMRS_RID_MAP_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/counters.h"
#include "common/dense_directory.h"
#include "imrs/row.h"
#include "obs/metrics_registry.h"
#include "page/page.h"

namespace btrim {

/// The RID-Map table (paper Sec. II, the yellow box): resolves a RID to the
/// in-memory row, if any. Every index access and page-store scan consults it
/// to decide whether the row's truth is in the IMRS or in the buffer cache.
///
/// Lock-free dense directory: heap files hand out RIDs densely (row n of a
/// file is page n / slots_per_page, slot n % slots_per_page), so the map is
/// a DenseDirectory of atomic row pointers indexed by (file_id, row
/// number). Lookup is three dependent loads and no lock; Insert and Erase
/// are one atomic exchange each. A file's layout is declared once with
/// SetSlotsPerPage before its first RID is mapped; files never declared
/// (unit tests, tools) use the widest layout, kMaxSlotsPerPage.
class RidMap {
 public:
  /// Upper bound on slots per heap page: every slot costs at least its
  /// 4-byte directory entry, so a kPageSize page holds fewer than this.
  static constexpr uint16_t kMaxSlotsPerPage = 2048;
  static_assert(kPageSize / 4 <= kMaxSlotsPerPage);

  RidMap()
      : slots_per_page_(std::make_unique<std::atomic<uint16_t>[]>(kFiles)) {}

  RidMap(const RidMap&) = delete;
  RidMap& operator=(const RidMap&) = delete;

  /// Declares the RID layout of heap file `file_id`. Call before any RID
  /// of that file is inserted.
  void SetSlotsPerPage(uint16_t file_id, uint16_t slots_per_page) {
    assert(slots_per_page > 0 && slots_per_page <= kMaxSlotsPerPage);
    slots_per_page_[file_id].store(slots_per_page, std::memory_order_relaxed);
  }

  void Insert(Rid rid, ImrsRow* row) {
    ImrsRow* old = dir_.At(rid.file_id, Index(rid))
                       .exchange(row, std::memory_order_acq_rel);
    if (old == nullptr) entries_.Add(1);
  }

  /// Removes the mapping; returns true when it existed.
  bool Erase(Rid rid) {
    std::atomic<ImrsRow*>* slot = dir_.Find(rid.file_id, Index(rid));
    if (slot == nullptr ||
        slot->exchange(nullptr, std::memory_order_acq_rel) == nullptr) {
      return false;
    }
    entries_.Add(-1);
    return true;
  }

  /// Returns the in-memory row for `rid`, or nullptr when the row lives
  /// only in the page store.
  ImrsRow* Lookup(Rid rid) const {
    lookups_.Inc();
    const std::atomic<ImrsRow*>* slot = dir_.Find(rid.file_id, Index(rid));
    ImrsRow* row =
        slot == nullptr ? nullptr : slot->load(std::memory_order_acquire);
    if (row != nullptr) hits_.Inc();
    return row;
  }

  int64_t Size() const { return entries_.Load(); }

  /// Visits every mapping in RID order (checkpoint walk, recovery index
  /// rebuild, validation). Lock-free: a mapping inserted or erased during
  /// the walk may or may not be visited, and every visited row pointer was
  /// mapped when it was read.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    dir_.ForEach([&](uint16_t file_id, uint64_t index, ImrsRow* row) {
      const uint64_t spp = SlotsPerPage(file_id);
      fn(Rid{file_id, static_cast<uint32_t>(index / spp),
             static_cast<uint16_t>(index % spp)},
         row);
    });
  }

  /// Registers the RID-map counters into the unified metrics registry under
  /// `rid_map.*`. `entries` is exported as a gauge: it shrinks when rows
  /// are purged or packed out of the IMRS.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const std::string& subsystem) const {
    const obs::MetricLabels l{subsystem, "", "", ""};
    BTRIM_RETURN_IF_ERROR(registry->RegisterGaugeFn(
        "rid_map.entries", l, [this] { return entries_.Load(); }));
    BTRIM_RETURN_IF_ERROR(
        registry->RegisterCounter("rid_map.lookups", l, &lookups_));
    BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("rid_map.hits", l, &hits_));
    return Status::OK();
  }

 private:
  // 4096-entry segments, up to 64Ki of them: 2^28 rows per heap file.
  using Directory = DenseDirectory<ImrsRow*, 12, size_t{1} << 16>;
  static constexpr size_t kFiles = Directory::kMaxFiles;

  uint64_t SlotsPerPage(uint16_t file_id) const {
    const uint16_t spp =
        slots_per_page_[file_id].load(std::memory_order_relaxed);
    return spp == 0 ? kMaxSlotsPerPage : spp;
  }

  uint64_t Index(Rid rid) const {
    const uint64_t spp = SlotsPerPage(rid.file_id);
    if (rid.slot >= spp) {
      // Would alias the next page's slots; a RID outside its file's
      // declared layout is a caller bug.
      std::fprintf(stderr, "RidMap: slot %u beyond %llu slots per page\n",
                   rid.slot, static_cast<unsigned long long>(spp));
      std::abort();
    }
    return uint64_t{rid.page_no} * spp + rid.slot;
  }

  Directory dir_;
  std::unique_ptr<std::atomic<uint16_t>[]> slots_per_page_;  // 0 = widest

  mutable ShardedCounter entries_, lookups_, hits_;
};

}  // namespace btrim

#endif  // BTRIM_IMRS_RID_MAP_H_
