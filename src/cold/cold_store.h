#ifndef BTRIM_COLD_COLD_STORE_H_
#define BTRIM_COLD_COLD_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cold/cold_page.h"
#include "common/counters.h"
#include "common/mutex.h"
#include "common/spinlock.h"
#include "common/thread_annotations.h"
#include "wal/log.h"

namespace btrim {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// The cold-columnar home store (DESIGN.md Sec. 15).
///
/// Pack relocates cold IMRS rows here instead of the slotted-page heap when
/// DatabaseOptions::cold_columnar is set. Rows accumulate in a per-(table,
/// partition) row-format staging builder and are sealed into immutable
/// column-grouped compressed segments — on reaching `segment_rows`, and at
/// every checkpoint flush. Sealed segments are persisted as framed appends
/// to a LogStorage (torn tails are detected and dropped at load, exactly
/// like the WAL).
///
/// The sharded rid index is the liveness truth: a segment row is live iff
/// the index still maps its rid to exactly (that segment, that row).
/// Erase = index removal; Place of an already-cold rid supersedes its old
/// segment row (upsert). There are no tombstone bitsets — scans skip
/// unmapped rows.
///
/// Lock order (all between kLockStripe and kHashBucket):
///   kColdBuilder (142)  per-partition staging mutex / partition registry
///   kColdSegments (143) sealed-segment list + per-table column stats
///   kColdIndexShard (144) rid index shards
/// Seal paths nest 142 -> 143 -> 144; point reads look the index up and
/// RELEASE it before taking a builder mutex, so no 144 -> 142 edge exists.
class ColdStore {
 public:
  explicit ColdStore(size_t segment_rows = 4096);

  ColdStore(const ColdStore&) = delete;
  ColdStore& operator=(const ColdStore&) = delete;

  /// Backing storage for sealed segments. Must be attached before any
  /// Place/Flush/Load (Database wires it during Init).
  void AttachStorage(std::unique_ptr<LogStorage> storage);

  /// Declares a table's schema (needed to decode its records and parse its
  /// segments at load). Call once per table, before Place/Load touch it.
  void RegisterTable(uint32_t table_id, const Schema* schema);

  /// --- row operations (callers hold the row's exclusive lock) -------------

  /// Upserts a row-format record as rid's cold home. Supersedes any earlier
  /// cold placement of the same rid. May seal a full builder (and then
  /// appends to storage).
  Status Place(uint32_t table_id, uint32_t partition_id, Rid rid,
               Slice record);

  /// Removes rid's cold home. Tolerant: false when none existed.
  bool Erase(Rid rid);

  bool Exists(Rid rid) const;

  /// Materializes rid's cold row in the row codec. NotFound when absent.
  Status ReadRow(Rid rid, std::string* out) const;

  /// --- durability ---------------------------------------------------------

  /// Seals every non-empty builder and syncs the segment storage. Called
  /// from the checkpoint durability barrier, so no syslogs drop strands
  /// cold redo evidence.
  Status Flush();

  /// Rebuilds segments + index from the attached storage (recovery). A torn
  /// or corrupt tail frame is dropped, as is any frame for an unregistered
  /// table. Later frames supersede earlier placements of the same rid.
  Status Load();

  /// --- scan support -------------------------------------------------------

  /// Copies the sealed-segment list (shared_ptr snapshot; segments are
  /// immutable, liveness is re-checked per row via IsLive).
  std::vector<std::shared_ptr<ColdSegment>> SegmentsSnapshot() const;

  /// True iff the index still maps `rid` to exactly (seg, row).
  bool IsLive(const ColdSegment* seg, uint32_t row, Rid rid) const;

  /// Visits every live cold rid (index sweep, no materialization).
  void ForEachRid(const std::function<void(Rid)>& fn) const;

  /// Visits a copy of every staged (not yet sealed) row of `table_id`.
  void ForEachBuilderRow(
      uint32_t table_id,
      const std::function<void(uint32_t partition_id, Rid, const std::string&)>&
          fn) const;

  /// Visits every live cold row, materialized (recovery index rebuild /
  /// cursor restore). Not consistent with concurrent mutation.
  void ForEachLive(const std::function<void(uint32_t table_id,
                                            uint32_t partition_id, Rid,
                                            const std::string&)>& fn) const;

  /// --- introspection ------------------------------------------------------

  int64_t rows() const { return index_rows_.Load(); }
  int64_t sealed_segments() const;

  /// Aggregated per-column encoding stats for one table (raw/encoded bytes
  /// summed over every sealed segment).
  std::vector<ColdColumnStats> ColumnStats(uint32_t table_id) const;

  /// Scan accounting, bumped by the HTAP scan operator.
  void AddScanBytes(int64_t n) { scan_bytes_scanned_.Add(n); }
  void AddScanRowsEmitted(int64_t n) { scan_rows_emitted_.Add(n); }
  void AddScanRowsSkipped(int64_t n) { scan_rows_skipped_.Add(n); }

  /// Registers the cold.* metrics under the given subsystem label.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const std::string& subsystem) const;

 private:
  /// Where a cold rid currently lives. A null segment means the row is
  /// still staged in its partition builder.
  struct Location {
    std::shared_ptr<ColdSegment> segment;
    uint32_t row = 0;
    uint32_t table_id = 0;
    uint32_t partition_id = 0;
  };

  static constexpr size_t kIndexShards = 64;
  struct alignas(kCacheLineSize) IndexShard {
    mutable SpinLock mu{LockRank::kColdIndexShard, "cold.index"};
    std::unordered_map<uint64_t, Location> map BTRIM_GUARDED_BY(mu);
  };

  /// Staging state for one (table, partition). `rows` is rid-ordered so
  /// seal output is deterministic regardless of arrival interleaving.
  struct PartitionBuilder {
    uint32_t table_id = 0;
    uint32_t partition_id = 0;
    const Schema* schema = nullptr;
    Mutex mu{LockRank::kColdBuilder, "cold.builder"};
    std::map<uint64_t, std::string> rows BTRIM_GUARDED_BY(mu);
    uint64_t next_seq BTRIM_GUARDED_BY(mu) = 0;
  };

  IndexShard& ShardFor(uint64_t rid_enc) const;
  std::shared_ptr<PartitionBuilder> BuilderFor(uint32_t table_id,
                                               uint32_t partition_id,
                                               bool create);

  /// Seals `pb`'s staged rows into one segment: serialize, parse-validate,
  /// append the storage frame (after draining the erase journal), publish
  /// the segment, repoint the index. Caller holds pb->mu. No-op on an
  /// empty builder.
  Status SealLocked(PartitionBuilder* pb) BTRIM_REQUIRES(pb->mu);

  /// Appends one erase frame covering every pending erase and clears the
  /// journal. On append failure the journal is kept for the retry. Must be
  /// called ahead of every segment-frame append (and holding segments_mu_
  /// across both appends) so Load's file-order replay never sees an erase
  /// land after a re-placement of the same rid.
  Status AppendEraseFrameLocked() BTRIM_REQUIRES(segments_mu_);

  void AccumulateStatsLocked(uint32_t table_id,
                             const std::vector<ColdColumnStats>& stats)
      BTRIM_REQUIRES(segments_mu_);

  const size_t segment_rows_;
  std::unique_ptr<LogStorage> storage_;

  /// Partition-builder registry + schema catalog. Taken briefly for
  /// lookup/insert only; never held while a builder mutex is taken.
  mutable SpinLock registry_mu_{LockRank::kColdBuilder, "cold.registry"};
  std::unordered_map<uint64_t, std::shared_ptr<PartitionBuilder>> builders_
      BTRIM_GUARDED_BY(registry_mu_);
  std::unordered_map<uint32_t, const Schema*> schemas_
      BTRIM_GUARDED_BY(registry_mu_);

  mutable Mutex segments_mu_{LockRank::kColdSegments, "cold.segments"};
  std::vector<std::shared_ptr<ColdSegment>> segments_
      BTRIM_GUARDED_BY(segments_mu_);
  std::unordered_map<uint32_t, std::vector<ColdColumnStats>> column_stats_
      BTRIM_GUARDED_BY(segments_mu_);
  /// Erase journal: segment frames are immutable, so erases of flushed rows
  /// must persist separately or a crash after a log drop would
  /// resurrect them from the segment file. Drained into one erase frame
  /// BEFORE every segment-frame append (seal or flush, under segments_mu_
  /// across both appends) — pending erases predate the rows currently
  /// staged, and a later segment frame must be able to re-place an erased
  /// rid, so an erase frame may never land after the re-placing segment.
  std::vector<uint64_t> pending_erases_ BTRIM_GUARDED_BY(segments_mu_);

  std::unique_ptr<IndexShard[]> index_;

  mutable ShardedCounter index_rows_;
  mutable ShardedCounter bytes_packed_raw_, bytes_packed_compressed_;
  mutable ShardedCounter segments_sealed_, flushes_;
  mutable ShardedCounter point_reads_, erased_rows_;
  mutable ShardedCounter loaded_segments_, torn_segments_dropped_;
  mutable ShardedCounter scan_bytes_scanned_, scan_rows_emitted_,
      scan_rows_skipped_;
};

}  // namespace btrim

#endif  // BTRIM_COLD_COLD_STORE_H_
