// Cold-columnar home store (see cold_store.h for the protocol and lock
// order). Durability model: sealed segments are framed appends to a
// LogStorage ([magic][len][segment blob]); the segment blob carries its own
// checksum, so a torn flush tail is detected at load by frame bounds or
// blob checksum and dropped — the same WAL-style tolerance the transaction
// logs have. Cold *placements* are additionally value-logged in syslogs
// (kColdPlace/kColdErase), so rows staged but not yet flushed replay from
// the log; the checkpoint flushes this store before it drops syslogs
// segments, so the two sources always cover every live cold row.

#include "cold/cold_store.h"

#include <algorithm>

#include "common/coding.h"
#include "common/hash.h"
#include "obs/metrics_registry.h"

namespace btrim {

namespace {

constexpr uint32_t kColdFrameMagic = 0x46534342;  // "BCSF" little-endian
/// Erase-journal frame: a batch of rids whose cold homes were removed.
/// Segment frames are immutable, so erases must persist separately or a
/// crash after a syslogs drop would resurrect flushed rows.
constexpr uint32_t kColdEraseMagic = 0x45534342;  // "BCSE" little-endian
constexpr size_t kFrameHeaderBytes = 8;
/// Segment blob prefix needed to peek table_id before full parse.
constexpr size_t kMinBlobBytes = 12;

}  // namespace

ColdStore::ColdStore(size_t segment_rows)
    : segment_rows_(segment_rows == 0 ? 1 : segment_rows),
      index_(std::make_unique<IndexShard[]>(kIndexShards)) {}

void ColdStore::AttachStorage(std::unique_ptr<LogStorage> storage) {
  storage_ = std::move(storage);
}

void ColdStore::RegisterTable(uint32_t table_id, const Schema* schema) {
  SpinLockGuard guard(registry_mu_);
  schemas_[table_id] = schema;
}

ColdStore::IndexShard& ColdStore::ShardFor(uint64_t rid_enc) const {
  return index_[Mix64(rid_enc) & (kIndexShards - 1)];
}

std::shared_ptr<ColdStore::PartitionBuilder> ColdStore::BuilderFor(
    uint32_t table_id, uint32_t partition_id, bool create) {
  const uint64_t key = (static_cast<uint64_t>(table_id) << 32) | partition_id;
  SpinLockGuard guard(registry_mu_);
  auto it = builders_.find(key);
  if (it != builders_.end()) return it->second;
  if (!create) return nullptr;
  auto schema_it = schemas_.find(table_id);
  if (schema_it == schemas_.end()) return nullptr;
  auto pb = std::make_shared<PartitionBuilder>();
  pb->table_id = table_id;
  pb->partition_id = partition_id;
  pb->schema = schema_it->second;
  builders_.emplace(key, pb);
  return pb;
}

Status ColdStore::Place(uint32_t table_id, uint32_t partition_id, Rid rid,
                        Slice record) {
  auto pb = BuilderFor(table_id, partition_id, /*create=*/true);
  if (pb == nullptr) {
    return Status::InvalidArgument("cold store: table " +
                                   std::to_string(table_id) +
                                   " has no registered schema");
  }
  PartitionBuilder* b = pb.get();
  const uint64_t key = rid.Encode();
  MutexGuard guard(b->mu);
  auto [it, inserted] =
      b->rows.emplace(key, std::string(record.data(), record.size()));
  if (!inserted) it->second.assign(record.data(), record.size());
  bool was_new;
  {
    IndexShard& s = ShardFor(key);
    SpinLockGuard ig(s.mu);
    auto [iit, index_new] = s.map.emplace(key, Location{});
    iit->second = Location{nullptr, 0, table_id, partition_id};
    was_new = index_new;
  }
  if (was_new) index_rows_.Add(1);
  if (b->rows.size() >= segment_rows_) return SealLocked(b);
  return Status::OK();
}

bool ColdStore::Erase(Rid rid) {
  const uint64_t key = rid.Encode();
  uint32_t table_id = 0;
  uint32_t partition_id = 0;
  bool erased = false;
  {
    IndexShard& s = ShardFor(key);
    SpinLockGuard guard(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) return false;
    if (it->second.segment != nullptr) {
      s.map.erase(it);
      erased = true;
    } else {
      table_id = it->second.table_id;
      partition_id = it->second.partition_id;
    }
  }
  if (!erased) {
    // Builder-resident: re-run under the builder mutex so a concurrent seal
    // cannot republish the staged row after our index erase (seals hold the
    // same mutex). The index shard nests inside it (142 -> 144).
    auto pb = BuilderFor(table_id, partition_id, /*create=*/false);
    if (pb == nullptr) return false;
    PartitionBuilder* b = pb.get();
    MutexGuard guard(b->mu);
    b->rows.erase(key);
    IndexShard& s = ShardFor(key);
    {
      SpinLockGuard ig(s.mu);
      auto it = s.map.find(key);
      if (it == s.map.end()) return false;
      s.map.erase(it);
    }
  }
  index_rows_.Add(-1);
  erased_rows_.Inc();
  // Journal every erase (a pure-builder erase replays as a no-op): the row
  // may have been sealed at any point, and the journal is what survives a
  // syslogs drop.
  {
    MutexGuard sg(segments_mu_);
    pending_erases_.push_back(key);
  }
  return true;
}

bool ColdStore::Exists(Rid rid) const {
  const uint64_t key = rid.Encode();
  IndexShard& s = ShardFor(key);
  SpinLockGuard guard(s.mu);
  return s.map.find(key) != s.map.end();
}

Status ColdStore::ReadRow(Rid rid, std::string* out) const {
  point_reads_.Inc();
  const uint64_t key = rid.Encode();
  Location loc;
  {
    IndexShard& s = ShardFor(key);
    SpinLockGuard guard(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) return Status::NotFound("no cold home");
    loc = it->second;
  }
  if (loc.segment != nullptr) {
    loc.segment->MaterializeRow(loc.row, out);
    return Status::OK();
  }
  // Staged: the builder mutex pins the row against a concurrent seal; if
  // one slipped in between the two lookups, the index now points at the
  // segment and we re-resolve under the mutex.
  auto pb = const_cast<ColdStore*>(this)->BuilderFor(loc.table_id,
                                                     loc.partition_id,
                                                     /*create=*/false);
  if (pb == nullptr) return Status::NotFound("no cold home");
  PartitionBuilder* b = pb.get();
  MutexGuard guard(b->mu);
  auto rit = b->rows.find(key);
  if (rit != b->rows.end()) {
    *out = rit->second;
    return Status::OK();
  }
  {
    IndexShard& s = ShardFor(key);
    SpinLockGuard ig(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) return Status::NotFound("no cold home");
    loc = it->second;
  }
  if (loc.segment == nullptr) return Status::NotFound("no cold home");
  loc.segment->MaterializeRow(loc.row, out);
  return Status::OK();
}

Status ColdStore::SealLocked(PartitionBuilder* b) {
  if (b->rows.empty()) return Status::OK();
  if (storage_ == nullptr) {
    return Status::InvalidArgument("cold store: no storage attached");
  }
  ColdPageBuilder builder(b->schema);
  for (const auto& [rid_enc, payload] : b->rows) {
    BTRIM_RETURN_IF_ERROR(builder.Add(Rid::Decode(rid_enc), Slice(payload)));
  }
  const uint64_t raw = builder.raw_bytes();
  std::vector<ColdColumnStats> stats;
  std::string blob =
      builder.Finish(b->table_id, b->partition_id, b->next_seq, &stats);

  // Parse BEFORE appending: a blob the reader rejects must never become
  // durable (a dead frame the retry would duplicate), and a parse failure
  // must leave storage untouched so the staged rows simply retry.
  Result<std::shared_ptr<ColdSegment>> seg =
      ColdSegment::Parse(std::move(blob), b->schema);
  if (!seg.ok()) return seg.status();

  std::string frame;
  frame.reserve(kFrameHeaderBytes + (*seg)->encoded_size());
  PutFixed32(&frame, kColdFrameMagic);
  PutFixed32(&frame, static_cast<uint32_t>((*seg)->encoded_size()));
  const Slice image = (*seg)->serialized();
  frame.append(image.data(), image.size());

  {
    MutexGuard sg(segments_mu_);
    // Pending erases MUST reach the file before this segment frame: a
    // staged row may be a re-placement of an erased rid, and Load replays
    // in file order — an erase frame written after this segment would kill
    // the live re-placed row. Holding segments_mu_ across both appends
    // keeps concurrent seals/flushes from interleaving their frames into a
    // bad order.
    BTRIM_RETURN_IF_ERROR(AppendEraseFrameLocked());
    // Storage append failures leave the staged rows in place: the seal is
    // retried by the next trigger, and the log-side kColdPlace records keep
    // the rows recoverable meanwhile.
    BTRIM_RETURN_IF_ERROR(storage_->Append(Slice(frame)));
    segments_.push_back(*seg);
    AccumulateStatsLocked(b->table_id, stats);
  }
  ++b->next_seq;
  uint32_t row = 0;
  for (const auto& [rid_enc, payload] : b->rows) {
    IndexShard& s = ShardFor(rid_enc);
    SpinLockGuard ig(s.mu);
    auto it = s.map.find(rid_enc);
    // Under b->mu no Place/Erase of a staged rid can interleave, so the
    // entry is always present and builder-resident; guard anyway.
    if (it != s.map.end() && it->second.segment == nullptr) {
      it->second =
          Location{*seg, row, b->table_id, b->partition_id};
    }
    ++row;
  }
  bytes_packed_raw_.Add(static_cast<int64_t>(raw));
  bytes_packed_compressed_.Add(static_cast<int64_t>((*seg)->encoded_size()));
  segments_sealed_.Inc();
  b->rows.clear();
  return Status::OK();
}

Status ColdStore::AppendEraseFrameLocked() {
  if (pending_erases_.empty() || storage_ == nullptr) return Status::OK();
  std::string frame;
  frame.reserve(kFrameHeaderBytes + pending_erases_.size() * 8);
  PutFixed32(&frame, kColdEraseMagic);
  PutFixed32(&frame, static_cast<uint32_t>(pending_erases_.size() * 8));
  for (uint64_t rid_enc : pending_erases_) PutFixed64(&frame, rid_enc);
  // Failure keeps the journal intact for the retry; the failed seal/flush
  // fails its checkpoint, so syslogs keeps its kColdErase evidence.
  BTRIM_RETURN_IF_ERROR(storage_->Append(Slice(frame)));
  pending_erases_.clear();
  return Status::OK();
}

void ColdStore::AccumulateStatsLocked(
    uint32_t table_id, const std::vector<ColdColumnStats>& stats) {
  std::vector<ColdColumnStats>& agg = column_stats_[table_id];
  if (agg.size() < stats.size()) agg.resize(stats.size());
  for (size_t i = 0; i < stats.size(); ++i) {
    agg[i].encoding = stats[i].encoding;  // most recent segment's choice
    agg[i].raw_bytes += stats[i].raw_bytes;
    agg[i].encoded_bytes += stats[i].encoded_bytes;
    agg[i].distinct = std::max(agg[i].distinct, stats[i].distinct);
  }
}

Status ColdStore::Flush() {
  // Persist the erase journal even when no builder has rows to seal:
  // pending erases of already-flushed rows must be durable before the
  // checkpoint drops syslogs segments. SealLocked drains it again ahead of
  // every segment frame it appends, so file order always reads
  // erase-then-re-place for a re-placed rid.
  if (storage_ != nullptr) {
    MutexGuard sg(segments_mu_);
    BTRIM_RETURN_IF_ERROR(AppendEraseFrameLocked());
  }
  std::vector<std::shared_ptr<PartitionBuilder>> all;
  {
    SpinLockGuard guard(registry_mu_);
    all.reserve(builders_.size());
    for (const auto& [key, pb] : builders_) all.push_back(pb);
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) {
              return std::make_pair(a->table_id, a->partition_id) <
                     std::make_pair(b->table_id, b->partition_id);
            });
  for (const auto& pb : all) {
    PartitionBuilder* b = pb.get();
    MutexGuard guard(b->mu);
    BTRIM_RETURN_IF_ERROR(SealLocked(b));
  }
  if (storage_ != nullptr) {
    BTRIM_RETURN_IF_ERROR(storage_->Sync());
  }
  flushes_.Inc();
  return Status::OK();
}

Status ColdStore::Load() {
  if (storage_ == nullptr) return Status::OK();
  std::string all;
  BTRIM_RETURN_IF_ERROR(storage_->ReadAll(&all));
  size_t off = 0;  // end of the last intact frame
  while (all.size() - off >= kFrameHeaderBytes) {
    const uint32_t magic = DecodeFixed32(all.data() + off);
    const uint32_t len = DecodeFixed32(all.data() + off + 4);
    if (magic == kColdEraseMagic) {
      if (len > all.size() - off - kFrameHeaderBytes || len % 8 != 0) break;
      const char* p = all.data() + off + kFrameHeaderBytes;
      for (uint32_t i = 0; i < len; i += 8) {
        const uint64_t rid_enc = DecodeFixed64(p + i);
        IndexShard& s = ShardFor(rid_enc);
        SpinLockGuard ig(s.mu);
        if (s.map.erase(rid_enc) > 0) index_rows_.Add(-1);
      }
      off += kFrameHeaderBytes + len;
      continue;
    }
    if (magic != kColdFrameMagic ||
        len > all.size() - off - kFrameHeaderBytes || len < kMinBlobBytes) {
      break;  // a torn or damaged frame: see below
    }
    std::string blob = all.substr(off + kFrameHeaderBytes, len);
    const size_t frame_end = off + kFrameHeaderBytes + len;
    const uint32_t table_id = DecodeFixed32(blob.data() + 8);
    const Schema* schema = nullptr;
    {
      SpinLockGuard guard(registry_mu_);
      auto it = schemas_.find(table_id);
      if (it != schemas_.end()) schema = it->second;
    }
    if (schema == nullptr) {  // table not re-created; frame skipped
      off = frame_end;
      continue;
    }
    Result<std::shared_ptr<ColdSegment>> seg =
        ColdSegment::Parse(std::move(blob), schema);
    if (!seg.ok()) {
      // Checksum/bounds failure: a torn flush, or damage if more bytes
      // follow it. Frame alignment past it is untrusted either way.
      break;
    }
    off = frame_end;
    auto pb = BuilderFor(table_id, (*seg)->partition_id(), /*create=*/true);
    if (pb != nullptr) {
      PartitionBuilder* b = pb.get();
      MutexGuard guard(b->mu);
      b->next_seq = std::max(b->next_seq, (*seg)->seq() + 1);
    }
    {
      MutexGuard sg(segments_mu_);
      segments_.push_back(*seg);
    }
    for (uint32_t row = 0; row < (*seg)->row_count(); ++row) {
      const uint64_t rid_enc = (*seg)->RidAt(row).Encode();
      IndexShard& s = ShardFor(rid_enc);
      SpinLockGuard ig(s.mu);
      auto [it, inserted] = s.map.emplace(rid_enc, Location{});
      it->second = Location{*seg, row, table_id, (*seg)->partition_id()};
      if (inserted) index_rows_.Add(1);
    }
    loaded_segments_.Inc();
  }
  if (off < all.size()) {
    torn_segments_dropped_.Inc();
    // Cut a torn tail off, so frames appended from now on follow the last
    // intact one, where the next Load reaches them. A bad frame with more
    // bytes after it is damage: TrimTail reports Corruption.
    const uint64_t declared =
        all.size() - off < kFrameHeaderBytes
            ? kFrameHeaderBytes
            : kFrameHeaderBytes + DecodeFixed32(all.data() + off + 4);
    return storage_->TrimTail(off, off + declared);
  }
  return Status::OK();
}

std::vector<std::shared_ptr<ColdSegment>> ColdStore::SegmentsSnapshot()
    const {
  MutexGuard guard(segments_mu_);
  return segments_;
}

bool ColdStore::IsLive(const ColdSegment* seg, uint32_t row, Rid rid) const {
  const uint64_t key = rid.Encode();
  IndexShard& s = ShardFor(key);
  SpinLockGuard guard(s.mu);
  auto it = s.map.find(key);
  return it != s.map.end() && it->second.segment.get() == seg &&
         it->second.row == row;
}

void ColdStore::ForEachRid(const std::function<void(Rid)>& fn) const {
  std::vector<uint64_t> rids;
  for (size_t i = 0; i < kIndexShards; ++i) {
    SpinLockGuard guard(index_[i].mu);
    for (const auto& [rid_enc, loc] : index_[i].map) rids.push_back(rid_enc);
  }
  for (uint64_t rid_enc : rids) fn(Rid::Decode(rid_enc));
}

void ColdStore::ForEachBuilderRow(
    uint32_t table_id,
    const std::function<void(uint32_t, Rid, const std::string&)>& fn) const {
  std::vector<std::shared_ptr<PartitionBuilder>> all;
  {
    SpinLockGuard guard(registry_mu_);
    for (const auto& [key, pb] : builders_) {
      if (pb->table_id == table_id) all.push_back(pb);
    }
  }
  for (const auto& pb : all) {
    PartitionBuilder* b = pb.get();
    std::vector<std::pair<uint64_t, std::string>> rows;
    {
      MutexGuard guard(b->mu);
      rows.reserve(b->rows.size());
      for (const auto& [rid_enc, payload] : b->rows) {
        rows.emplace_back(rid_enc, payload);
      }
    }
    for (const auto& [rid_enc, payload] : rows) {
      fn(b->partition_id, Rid::Decode(rid_enc), payload);
    }
  }
}

void ColdStore::ForEachLive(
    const std::function<void(uint32_t, uint32_t, Rid, const std::string&)>&
        fn) const {
  std::vector<std::pair<uint64_t, Location>> entries;
  for (size_t i = 0; i < kIndexShards; ++i) {
    SpinLockGuard guard(index_[i].mu);
    for (const auto& [rid_enc, loc] : index_[i].map) {
      entries.emplace_back(rid_enc, loc);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string payload;
  for (const auto& [rid_enc, loc] : entries) {
    const Rid rid = Rid::Decode(rid_enc);
    if (loc.segment != nullptr) {
      loc.segment->MaterializeRow(loc.row, &payload);
      fn(loc.segment->table_id(), loc.segment->partition_id(), rid, payload);
      continue;
    }
    auto pb = const_cast<ColdStore*>(this)->BuilderFor(loc.table_id,
                                                       loc.partition_id,
                                                       /*create=*/false);
    if (pb == nullptr) continue;
    PartitionBuilder* b = pb.get();
    MutexGuard guard(b->mu);
    auto it = b->rows.find(rid_enc);
    if (it == b->rows.end()) continue;
    fn(loc.table_id, loc.partition_id, rid, it->second);
  }
}

int64_t ColdStore::sealed_segments() const {
  MutexGuard guard(segments_mu_);
  return static_cast<int64_t>(segments_.size());
}

std::vector<ColdColumnStats> ColdStore::ColumnStats(uint32_t table_id) const {
  MutexGuard guard(segments_mu_);
  auto it = column_stats_.find(table_id);
  if (it == column_stats_.end()) return {};
  return it->second;
}

Status ColdStore::RegisterMetrics(obs::MetricsRegistry* registry,
                                  const std::string& subsystem) const {
  const obs::MetricLabels l{subsystem, "", "", ""};
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("cold.bytes_packed_raw", l,
                                                  &bytes_packed_raw_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter(
      "cold.bytes_packed_compressed", l, &bytes_packed_compressed_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("cold.segments_sealed", l,
                                                  &segments_sealed_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterGaugeFn("cold.segments", l,
                                [this] { return sealed_segments(); }));
  BTRIM_RETURN_IF_ERROR(registry->RegisterGaugeFn(
      "cold.rows", l, [this] { return index_rows_.Load(); }));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("cold.flushes", l, &flushes_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("cold.point_reads", l, &point_reads_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("cold.erased_rows", l, &erased_rows_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("cold.loaded_segments", l,
                                                  &loaded_segments_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter(
      "cold.torn_segments_dropped", l, &torn_segments_dropped_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("cold.scan_bytes_scanned",
                                                  l, &scan_bytes_scanned_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("cold.scan_rows_emitted", l,
                                                  &scan_rows_emitted_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("cold.scan_rows_skipped", l,
                                                  &scan_rows_skipped_));
  return Status::OK();
}

}  // namespace btrim
