// HTAP table scan (DESIGN.md Sec. 15): one operator over both stores.
//
// Pass 1 sweeps the cold-columnar store lock-free: sealed segments are
// immutable, so rows are served straight out of the column chunks after a
// per-row liveness re-check against the rid index (a row superseded or
// erased since the segment sealed is skipped — its current image is found
// by pass 2). Staged builder rows are copied out under the builder mutex.
// Both hold only committed images (access.cc turns written cold rows hot
// before mutating them), which is what makes the lock-free read sound.
// Rows masked by an IMRS-resident version are skipped here and served by
// pass 2 at the transaction's snapshot.
//
// Pass 2 streams the primary index for everything pass 1 did not emit, one
// leaf at a time through the index visitor (no index latch is held while a
// row is read): IMRS rows resolve through VisibleVersion at the
// transaction's begin timestamp; the rest are committed reads of their heap
// (or just-turned-cold) home via ReadVisible, exactly like ScanIndex.
//
// Projection pushdown only pays off in pass 1: a projected sealed-segment
// scan touches (and counts toward cold.scan_bytes_scanned) only the
// projected columns' encoded chunks. Row-format sources always materialize
// whole records.

#include <unordered_set>

#include "engine/database.h"

namespace btrim {

Status Database::ScanTable(Transaction* txn, Table* table,
                           const HtapScanOptions& options,
                           FunctionRef<bool(const HtapRow&)> visitor,
                           HtapScanStats* stats) {
  HtapScanStats local;
  const size_t num_columns = table->schema().num_columns();
  std::vector<size_t> projected = options.columns;
  if (projected.empty()) {
    projected.resize(num_columns);
    for (size_t i = 0; i < num_columns; ++i) projected[i] = i;
  }
  for (size_t col : projected) {
    if (col >= num_columns) {
      return Status::InvalidArgument("projected column out of range");
    }
  }

  // Rids already emitted from the cold store; pass 2 skips them.
  std::unordered_set<uint64_t> emitted;
  bool stopped = false;

  auto finish = [&]() {
    cold_->AddScanBytes(local.bytes_scanned_cold);
    cold_->AddScanRowsEmitted(local.rows_emitted);
    cold_->AddScanRowsSkipped(local.rows_skipped);
    if (stats != nullptr) *stats = local;
    return Status::OK();
  };

  // --- pass 1a: sealed segments (lock-free columnar access) -----------------
  for (const auto& seg : cold_->SegmentsSnapshot()) {
    if (stopped) break;
    if (seg->table_id() != table->id()) continue;
    bool touched = false;
    for (uint32_t r = 0; r < seg->row_count(); ++r) {
      const Rid rid = seg->RidAt(r);
      // Liveness + masking re-check: superseded/erased rows and rows with
      // an IMRS-resident version are somebody else's to report.
      if (!cold_->IsLive(seg.get(), r, rid) ||
          rid_map_.Lookup(rid) != nullptr) {
        ++local.rows_skipped;
        continue;
      }
      touched = true;
      HtapRow out;
      out.rid = rid;
      out.seg = seg.get();
      out.seg_row = r;
      ++local.rows_emitted;
      ++local.rows_from_cold;
      emitted.insert(rid.Encode());
      if (!visitor(out)) {
        stopped = true;
        break;
      }
    }
    // Projection accounting: a segment with any live row costs exactly its
    // projected columns' encoded chunks (plus nothing for the pruned ones).
    if (touched) {
      for (size_t col : projected) {
        local.bytes_scanned_cold +=
            static_cast<int64_t>(seg->ColumnBytes(col));
      }
    }
  }

  // --- pass 1b: staged (not yet sealed) cold rows ---------------------------
  if (!stopped) {
    cold_->ForEachBuilderRow(
        table->id(),
        [&](uint32_t partition_id, Rid rid, const std::string& payload) {
          (void)partition_id;
          if (stopped) return;
          if (rid_map_.Lookup(rid) != nullptr ||
              !emitted.insert(rid.Encode()).second) {
            ++local.rows_skipped;
            return;
          }
          RecordView view(&table->schema(), Slice(payload));
          if (!view.valid()) {
            ++local.rows_skipped;
            return;
          }
          HtapRow out;
          out.rid = rid;
          out.view = &view;
          ++local.rows_emitted;
          ++local.rows_from_cold;
          local.bytes_scanned_cold += static_cast<int64_t>(payload.size());
          if (!visitor(out)) stopped = true;
        });
  }

  // --- pass 2: primary-index sweep for IMRS + heap rows ---------------------
  if (!stopped) {
    std::string payload;
    Status status;
    BTRIM_RETURN_IF_ERROR(table->primary_index()->Scan(
        Slice(), Slice(), [&](Slice, uint64_t rid_enc) {
          if (emitted.find(rid_enc) != emitted.end()) return true;
          Located loc;
          loc.rid = Rid::Decode(rid_enc);
          loc.part = table->PartitionForRid(loc.rid);
          if (loc.part == nullptr) return true;
          loc.row = rid_map_.Lookup(loc.rid);
          bool from_imrs = false;
          status = ReadVisible(txn, loc, &payload, &from_imrs);
          if (status.IsNotFound()) {
            status = Status::OK();
            ++local.rows_skipped;  // invisible to this snapshot / deleted
            return true;
          }
          if (!status.ok()) return false;
          RecordView view(&table->schema(), Slice(payload));
          if (!view.valid()) {
            status = Status::Corruption("undecodable record at rid " +
                                        loc.rid.ToString());
            return false;
          }
          HtapRow out;
          out.rid = loc.rid;
          out.view = &view;
          ++local.rows_emitted;
          if (from_imrs) {
            ++local.rows_from_imrs;
          } else if (cold_->Exists(loc.rid)) {
            // Raced with Pack: the home moved cold between pass 1 and
            // this read; ReadVisible read it through the cold store.
            ++local.rows_from_cold;
          } else {
            ++local.rows_from_heap;
          }
          return visitor(out);
        }));
    BTRIM_RETURN_IF_ERROR(status);
  }

  return finish();
}

}  // namespace btrim
