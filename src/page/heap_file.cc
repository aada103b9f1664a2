#include "page/heap_file.h"

#include "page/slotted_page.h"

namespace btrim {

HeapFile::HeapFile(uint16_t file_id, BufferCache* cache,
                   uint16_t slots_per_page)
    : file_id_(file_id), cache_(cache), slots_per_page_(slots_per_page) {}

Rid HeapFile::AllocateRid() {
  const uint64_t row = next_row_.fetch_add(1, std::memory_order_relaxed);
  return RidForRow(row);
}

Status HeapFile::Place(Rid rid, Slice payload, bool* contended) {
  Result<PageGuard> guard =
      cache_->FixPage(rid.page_id(), LatchMode::kExclusive);
  if (!guard.ok()) return guard.status();
  if (guard->contended() && contended != nullptr) *contended = true;
  SlottedPage page(guard->data());
  if (!page.IsInitialized()) {
    page.Init();
  }
  Status s = page.InsertAt(rid.slot, payload);
  if (s.ok()) guard->MarkDirty();
  return s;
}

Result<Rid> HeapFile::Insert(Slice payload) {
  const Rid rid = AllocateRid();
  Status s = Place(rid, payload);
  if (!s.ok()) return s;
  return rid;
}

Status HeapFile::Read(Rid rid, std::string* out, bool* contended) {
  Result<PageGuard> guard = cache_->FixPage(rid.page_id(), LatchMode::kShared);
  if (!guard.ok()) return guard.status();
  if (guard->contended() && contended != nullptr) *contended = true;
  SlottedPage page(guard->data());
  if (!page.IsInitialized()) {
    return Status::NotFound("page not materialized");
  }
  Result<Slice> row = page.ReadAt(rid.slot);
  if (!row.ok()) return row.status();
  out->assign(row->data(), row->size());
  return Status::OK();
}

Status HeapFile::Update(Rid rid, Slice payload, bool* contended) {
  Result<PageGuard> guard =
      cache_->FixPage(rid.page_id(), LatchMode::kExclusive);
  if (!guard.ok()) return guard.status();
  if (guard->contended() && contended != nullptr) *contended = true;
  SlottedPage page(guard->data());
  if (!page.IsInitialized()) {
    return Status::NotFound("page not materialized");
  }
  Status s = page.UpdateAt(rid.slot, payload);
  if (s.ok()) guard->MarkDirty();
  return s;
}

Status HeapFile::Delete(Rid rid, bool* contended) {
  Result<PageGuard> guard =
      cache_->FixPage(rid.page_id(), LatchMode::kExclusive);
  if (!guard.ok()) return guard.status();
  if (guard->contended() && contended != nullptr) *contended = true;
  SlottedPage page(guard->data());
  if (!page.IsInitialized()) {
    return Status::NotFound("page not materialized");
  }
  Status s = page.DeleteAt(rid.slot);
  if (s.ok()) guard->MarkDirty();
  return s;
}

bool HeapFile::Exists(Rid rid) {
  Result<PageGuard> guard = cache_->FixPage(rid.page_id(), LatchMode::kShared);
  if (!guard.ok()) return false;
  SlottedPage page(guard->data());
  return page.IsInitialized() && page.IsOccupied(rid.slot);
}

Status HeapFile::ScanAll(const std::function<bool(Rid, Slice)>& fn) {
  const uint32_t pages = AllocatedPages();
  for (uint32_t p = 0; p < pages; ++p) {
    Result<PageGuard> guard =
        cache_->FixPage(PageId{file_id_, p}, LatchMode::kShared);
    if (!guard.ok()) return guard.status();
    SlottedPage page(guard->data());
    if (!page.IsInitialized()) continue;
    const uint16_t slots = page.SlotCount();
    for (uint16_t s = 0; s < slots; ++s) {
      if (!page.IsOccupied(s)) continue;
      Result<Slice> row = page.ReadAt(s);
      if (!row.ok()) continue;
      if (!fn(Rid{file_id_, p, s}, *row)) return Status::OK();
    }
  }
  return Status::OK();
}

Result<uint64_t> HeapFile::MaxDurableRow(uint32_t device_pages) {
  uint64_t max_row = 0;
  for (uint32_t p = 0; p < device_pages; ++p) {
    Result<PageGuard> guard =
        cache_->FixPage(PageId{file_id_, p}, LatchMode::kShared);
    if (!guard.ok()) return guard.status();
    SlottedPage page(guard->data());
    if (!page.IsInitialized()) continue;
    const uint16_t slots = page.SlotCount();
    for (uint16_t s = 0; s < slots; ++s) {
      if (page.IsOccupied(s)) {
        max_row = std::max<uint64_t>(
            max_row, uint64_t{p} * slots_per_page_ + s + 1);
      }
    }
  }
  return max_row;
}

uint32_t HeapFile::AllocatedPages() const {
  const uint64_t rows = next_row_.load(std::memory_order_relaxed);
  return static_cast<uint32_t>((rows + slots_per_page_ - 1) / slots_per_page_);
}

}  // namespace btrim
