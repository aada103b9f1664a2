// Crash recovery (paper Sec. II), rebased onto overlapped checkpoints and
// sharded across the background thread pool.
//
// The two logs are recovered with lock-step ordering:
//
//   1. syslogs, undo-redo, from the newest complete checkpoint's begin
//      record on (DESIGN.md Sec. 14.3: what precedes it is durable, and
//      its drop may have cut it short). An analysis pass finds winners
//      (those with a kPsCommit record); an undo pass rolls back losers'
//      changes in reverse order using before-images; a redo pass then
//      re-applies winners' changes in log order. All physical operations
//      are value-logged and tolerant, so replay is idempotent regardless
//      of which dirty pages reached disk.
//
//      Undo MUST precede redo: before-images are captured at runtime, so a
//      loser that touched a RID before a later winner carries a stale image
//      of it (the winner's value postdates the abort). Running undo last
//      would clobber the winner's redone value with that stale image.
//      Undo-first converges: per RID, exclusive locks are held to commit or
//      abort, so transaction segments never interleave — any loser segment
//      after the last winner write rolled back (at runtime) to exactly that
//      winner's value, which is also the before-image it logged; loser
//      segments before it are overwritten by the redo pass anyway.
//
//   2. sysimrslogs, redo-only with a checkpoint rebase: replay first
//      locates the newest COMPLETE kCheckpointBegin/kCheckpointEnd pair
//      (matching cts; a begin without a durable end — crash mid-checkpoint
//      — is ignored wholesale). The chosen checkpoint's snapshot rows
//      (kImrsSnapshotRow/Del tagged with its epoch) recreate the IMRS as
//      of the snapshot; committed groups whose kImrsCommit lies *after*
//      the begin record then replay on top of it. With the begin barrier
//      quiescing commits (checkpoint.cc), a group lies before the begin
//      record iff its cts <= epoch, i.e. iff its effects are inside the
//      snapshot — skipping those groups is what turns the log prefix into
//      a snapshot read instead of a full replay. Without any complete
//      pair, every committed group replays from the start, exactly the
//      pre-checkpoint behavior.
//
//      Cross-log arbitration: a group whose kImrsCommit carries the
//      has-page-store-changes flag (source != 0) committed in two steps —
//      sysimrslogs group first, syslogs kPsCommit second — and a crash can
//      land between them. Such a group only applies if its transaction is a
//      syslogs winner; otherwise both halves roll back together. Its
//      kPsCommit follows the begin record too, so no drop removes it.
//
//   3. Sharded application: both logs' physical appliers partition cleanly
//      by RID (value logging; no cross-row dependencies), so replay fans
//      out across kRecoveryShards RID-hash shards (the same Fibonacci hash
//      and shard count as ImrsGc) on the shared background pool. Per shard,
//      per-RID record order is preserved — undo-then-redo for syslogs,
//      snapshot-then-groups in log order for sysimrslogs — which is the
//      only ordering the appliers need. With effective workers <= 1 the
//      shards run inline in shard order: the deterministic anchor the
//      parallel paths are validated against (recovery_test.cc).
//
// Afterwards the RID allocation cursors (merged serially across shard
// trackers), B+Tree / hash indexes, ILM queue memberships, and the commit
// clock are rebuilt from the recovered data. The catalog itself
// (CreateTable calls) is not persisted; the application re-creates tables
// in the same order before calling Recover().

#include <algorithm>
#include <array>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/database.h"
#include "wal/log_record.h"

namespace btrim {

namespace {

/// Replay shards. Matches ImrsGc::kGcShards (and its RID hash) so the
/// recovery fan-out has the same granularity as the GC fan-out.
constexpr int kRecoveryShards = 16;

int ShardForRid(uint64_t rid_enc) {
  const uint64_t h = rid_enc * 0x9E3779B97F4A7C15ull;
  return static_cast<int>(h >> 60) & (kRecoveryShards - 1);
}

/// Tracks the highest row index seen per heap file, to restore cursors.
/// One tracker per replay shard; merged serially afterwards.
class CursorTracker {
 public:
  void See(Rid rid, uint16_t slots_per_page) {
    const uint64_t row_index =
        static_cast<uint64_t>(rid.page_no) * slots_per_page + rid.slot;
    uint64_t& cur = max_row_[rid.file_id];
    if (row_index + 1 > cur) cur = row_index + 1;
  }
  void Merge(const CursorTracker& other) {
    for (const auto& [file_id, cursor] : other.max_row_) {
      uint64_t& cur = max_row_[file_id];
      if (cursor > cur) cur = cursor;
    }
  }
  uint64_t CursorFor(uint16_t file_id) const {
    auto it = max_row_.find(file_id);
    return it == max_row_.end() ? 0 : it->second;
  }

 private:
  std::unordered_map<uint16_t, uint64_t> max_row_;
};

}  // namespace

Status Database::Recover() {
  // Replay parallelism follows pack_workers (it sizes the shared pool);
  // <= 1 runs every shard inline, in shard order.
  auto run_sharded = [&](std::vector<std::function<void()>> tasks) {
    if (options_.pack_workers <= 1) {
      for (auto& task : tasks) task();
    } else {
      background_pool_->RunTasks(std::move(tasks));
    }
  };

  // Map file_id -> (table, partition) for record application. Thread-safe:
  // catalog_mu_ is taken shared per call.
  auto part_for_rid = [this](uint64_t rid_enc,
                             Rid* rid) -> TablePartition* {
    *rid = Rid::Decode(rid_enc);
    RwSpinLockReadGuard guard(catalog_mu_);
    auto it = part_by_file_.find(rid->file_id);
    if (it == part_by_file_.end()) return nullptr;
    return &it->second.first->partition(it->second.second);
  };

  std::array<CursorTracker, kRecoveryShards> shard_cursors;
  uint64_t max_cts = 0;
  uint64_t max_txn_id = 0;

  // --- cold-columnar store: reload flushed segments -------------------------
  // Tables (and so schemas) were re-created by the caller before Recover().
  // The segment file is the checkpointed base state; kColdPlace/kColdErase
  // records in syslogs carry the post-flush delta and replay on top of it
  // below (checkpoint.cc flushes the cold store before every end record, so
  // between the two sources every live cold row is covered).
  BTRIM_RETURN_IF_ERROR(cold_->Load());

  // --- syslogs pass 1: analysis (serial) ------------------------------------
  std::unordered_map<uint64_t, uint64_t> winners;  // txn -> cts
  std::vector<LogRecord> ps_ops;
  // Cold ops replay serially: segment sealing inside ColdStore::Place makes
  // per-shard fan-out not worth the synchronization, and cold volumes are a
  // small fraction of a batch's records.
  std::vector<LogRecord> cold_ops;
  // Record counts at the open kCheckpointBegin, and at the begin of the
  // newest complete pair, where undo and redo start.
  struct Cut {
    size_t ps = 0, cold = 0;
    uint64_t cts = 0;
  };
  std::optional<Cut> open;
  Cut start;
  BTRIM_RETURN_IF_ERROR(syslogs_->Replay([&](const LogRecord& rec) {
    if (rec.txn_id > max_txn_id) max_txn_id = rec.txn_id;
    switch (rec.type) {
      case LogRecordType::kCheckpointBegin:
        open = Cut{ps_ops.size(), cold_ops.size(), rec.cts};
        break;
      case LogRecordType::kCheckpointEnd:
        if (open.has_value() && open->cts == rec.cts) start = *open;
        open.reset();
        break;
      case LogRecordType::kPsCommit:
        winners[rec.txn_id] = rec.cts;
        if (rec.cts > max_cts) max_cts = rec.cts;
        break;
      case LogRecordType::kPsInsert:
      case LogRecordType::kPsUpdate:
      case LogRecordType::kPsDelete:
        ps_ops.push_back(rec);
        break;
      case LogRecordType::kColdPlace:
      case LogRecordType::kColdErase:
        cold_ops.push_back(rec);
        break;
      default:
        break;  // aborts carry no work
    }
    return true;
  }));
  std::array<std::vector<LogRecord>, kRecoveryShards> ps_shards;
  for (size_t i = start.ps; i < ps_ops.size(); ++i) {
    ps_shards[ShardForRid(ps_ops[i].rid)].push_back(std::move(ps_ops[i]));
  }
  ps_ops = std::vector<LogRecord>();
  cold_ops.erase(cold_ops.begin(), cold_ops.begin() + start.cold);

  // --- syslogs passes 2+3: sharded undo-then-redo ---------------------------
  // Sharding by RID keeps every record of one RID in one shard in log
  // order, which is all the undo/redo ordering argument above needs
  // (different RIDs are independent under value logging). Heap mutations
  // synchronize on buffer-cache page latches.
  {
    std::vector<std::function<void()>> tasks;
    for (int s = 0; s < kRecoveryShards; ++s) {
      tasks.push_back([&, s] {
        const std::vector<LogRecord>& records = ps_shards[s];
        CursorTracker& cursors = shard_cursors[s];
        auto place_or_update = [&](TablePartition* part, Rid rid,
                                   const std::string& data) {
          if (part->heap->Exists(rid)) {
            Status st = part->heap->Update(rid, Slice(data));
            (void)st;
          } else {
            Status st = part->heap->Place(rid, Slice(data));
            (void)st;
          }
        };
        auto delete_tolerant = [&](TablePartition* part, Rid rid) {
          Status st = part->heap->Delete(rid);
          (void)st;
        };

        // Undo losers in reverse order.
        for (auto it = records.rbegin(); it != records.rend(); ++it) {
          const LogRecord& rec = *it;
          if (winners.find(rec.txn_id) != winners.end()) continue;
          Rid rid;
          TablePartition* part = part_for_rid(rec.rid, &rid);
          if (part == nullptr) continue;
          cursors.See(rid, part->heap->slots_per_page());
          switch (rec.type) {
            case LogRecordType::kPsInsert:
              delete_tolerant(part, rid);
              break;
            case LogRecordType::kPsUpdate:
            case LogRecordType::kPsDelete:
              place_or_update(part, rid, rec.before);
              break;
            default:
              break;
          }
        }
        // Redo winners in log order.
        for (const LogRecord& rec : records) {
          if (winners.find(rec.txn_id) == winners.end()) continue;
          Rid rid;
          TablePartition* part = part_for_rid(rec.rid, &rid);
          if (part == nullptr) continue;
          cursors.See(rid, part->heap->slots_per_page());
          switch (rec.type) {
            case LogRecordType::kPsInsert:
            case LogRecordType::kPsUpdate:
              place_or_update(part, rid, rec.after);
              break;
            case LogRecordType::kPsDelete:
              delete_tolerant(part, rid);
              break;
            default:
              break;
          }
        }
      });
    }
    run_sharded(std::move(tasks));
  }

  // --- cold-columnar ops: serial undo-then-redo on the loaded base ----------
  // Same undo/redo argument as the heap: cold placements are value-logged
  // under the row's exclusive lock, so per-rid segments never interleave.
  // Cold and heap mutations of one rid target disjoint structures, so
  // running this after the sharded heap pass preserves nothing it needs —
  // each store's final state is decided by its own last op.
  {
    Status cold_status;
    auto cold_place = [&](const LogRecord& rec, const std::string& data) {
      if (!cold_status.ok()) return;
      // Skip placements already covered by the loaded segment base: replay
      // after a flush would otherwise re-stage (and eventually re-seal)
      // identical rows on every recovery.
      std::string current;
      if (cold_->ReadRow(Rid::Decode(rec.rid), &current).ok() &&
          current == data) {
        return;
      }
      cold_status = cold_->Place(rec.table_id, rec.partition_id,
                                 Rid::Decode(rec.rid), Slice(data));
    };
    // Undo losers in reverse order.
    for (auto it = cold_ops.rbegin(); it != cold_ops.rend(); ++it) {
      const LogRecord& rec = *it;
      if (winners.find(rec.txn_id) != winners.end()) continue;
      Rid rid;
      TablePartition* part = part_for_rid(rec.rid, &rid);
      if (part == nullptr) continue;
      shard_cursors[ShardForRid(rec.rid)].See(rid,
                                              part->heap->slots_per_page());
      if (rec.type == LogRecordType::kColdPlace) {
        if (rec.before.empty()) {
          cold_->Erase(rid);
        } else {
          cold_place(rec, rec.before);
        }
      } else {  // kColdErase
        cold_place(rec, rec.before);
      }
    }
    // Redo winners in log order.
    for (const LogRecord& rec : cold_ops) {
      if (winners.find(rec.txn_id) == winners.end()) continue;
      Rid rid;
      TablePartition* part = part_for_rid(rec.rid, &rid);
      if (part == nullptr) continue;
      shard_cursors[ShardForRid(rec.rid)].See(rid,
                                              part->heap->slots_per_page());
      if (rec.type == LogRecordType::kColdPlace) {
        cold_place(rec, rec.after);
      } else {  // kColdErase
        cold_->Erase(rid);
      }
    }
    BTRIM_RETURN_IF_ERROR(cold_status);
  }

  // --- sysimrslogs pass 1: collect groups and checkpoints (serial) ---------
  struct Group {
    uint64_t cts = 0;
    uint8_t source = 0;
    uint64_t txn_id = 0;
    int64_t commit_ordinal = -1;
    std::vector<LogRecord> ops;
  };
  std::vector<Group> groups;                       // committed, in log order
  std::unordered_map<uint64_t, std::vector<LogRecord>> pending;
  std::unordered_map<uint64_t, std::vector<LogRecord>> snapshots;  // by epoch
  // Complete begin/end pairs. checkpoint_mu_ serializes checkpointers, so
  // pairs never nest; a begin superseded by a newer begin (its checkpoint
  // died before the end record) is simply forgotten.
  int64_t open_begin_ordinal = -1;
  uint64_t open_begin_ts = 0;
  int64_t chosen_begin_ordinal = -1;
  uint64_t chosen_ts = 0;
  bool have_checkpoint = false;
  {
    int64_t ordinal = -1;
    BTRIM_RETURN_IF_ERROR(sysimrslogs_->Replay([&](const LogRecord& rec) {
      ++ordinal;
      switch (rec.type) {
        case LogRecordType::kCheckpoint:
          break;  // no longer written; carries nothing to replay
        case LogRecordType::kCheckpointBegin:
          open_begin_ordinal = ordinal;
          open_begin_ts = rec.cts;
          if (rec.cts > max_cts) max_cts = rec.cts;
          break;
        case LogRecordType::kCheckpointEnd:
          if (open_begin_ordinal >= 0 && rec.cts == open_begin_ts) {
            chosen_begin_ordinal = open_begin_ordinal;
            chosen_ts = open_begin_ts;
            have_checkpoint = true;
            open_begin_ordinal = -1;
          }
          if (rec.cts > max_cts) max_cts = rec.cts;
          break;
        case LogRecordType::kImrsSnapshotRow:
        case LogRecordType::kImrsSnapshotDel:
          // txn_id carries the owning checkpoint's epoch, not a
          // transaction id (checkpoint.cc); keep it out of max_txn_id.
          snapshots[rec.txn_id].push_back(rec);
          if (rec.cts > max_cts) max_cts = rec.cts;
          break;
        case LogRecordType::kImrsCommit: {
          if (rec.txn_id > max_txn_id) max_txn_id = rec.txn_id;
          if (rec.cts > max_cts) max_cts = rec.cts;
          auto it = pending.find(rec.txn_id);
          if (it == pending.end()) break;
          Group g;
          g.cts = rec.cts;
          g.source = rec.source;
          g.txn_id = rec.txn_id;
          g.commit_ordinal = ordinal;
          g.ops = std::move(it->second);
          pending.erase(it);
          groups.push_back(std::move(g));
          break;
        }
        default:
          if (rec.txn_id > max_txn_id) max_txn_id = rec.txn_id;
          pending[rec.txn_id].push_back(rec);
          break;
      }
      return true;
    }));
  }
  pending.clear();  // torn tail / uncommitted groups are dropped

  // --- sysimrslogs pass 2: sharded snapshot + group application -------------
  // Per shard: the chosen checkpoint's snapshot rows first, then surviving
  // groups' operations in log order. A RID's snapshot record precedes its
  // post-snapshot operations, and all of one RID's records land in one
  // shard, so per-RID application order is exactly log order.
  struct ImrsOp {
    const LogRecord* rec;
    uint64_t cts;       // group commit ts (snapshot records carry their own)
    bool from_snapshot;
  };
  std::array<std::vector<ImrsOp>, kRecoveryShards> imrs_shards;
  if (have_checkpoint) {
    auto snap_it = snapshots.find(chosen_ts);
    if (snap_it != snapshots.end()) {
      for (const LogRecord& rec : snap_it->second) {
        imrs_shards[ShardForRid(rec.rid)].push_back(
            ImrsOp{&rec, rec.cts, /*from_snapshot=*/true});
      }
    }
  }
  for (const Group& g : groups) {
    // Rebase: groups before the chosen begin record are inside the
    // snapshot; their effects arrive via the snapshot rows above.
    if (have_checkpoint && g.commit_ordinal < chosen_begin_ordinal) continue;
    // Cross-log arbitration (see the file comment): mixed-store groups
    // need their syslogs commit too.
    if (g.source != 0 && winners.find(g.txn_id) == winners.end()) continue;
    for (const LogRecord& op : g.ops) {
      imrs_shards[ShardForRid(op.rid)].push_back(
          ImrsOp{&op, g.cts, /*from_snapshot=*/false});
    }
  }

  {
    std::array<Status, kRecoveryShards> shard_status;
    std::vector<std::function<void()>> tasks;
    for (int s = 0; s < kRecoveryShards; ++s) {
      tasks.push_back([&, s] {
        CursorTracker& cursors = shard_cursors[s];
        Status& apply_status = shard_status[s];
        for (const ImrsOp& item : imrs_shards[s]) {
          if (!apply_status.ok()) break;
          const LogRecord& op = *item.rec;
          const uint64_t cts = item.cts;
          Rid rid;
          TablePartition* part = part_for_rid(op.rid, &rid);
          if (part == nullptr) continue;
          cursors.See(rid, part->heap->slots_per_page());
          PartitionState* pstate = part->ilm;
          ImrsRow* row = rid_map_.Lookup(rid);

          switch (op.type) {
            case LogRecordType::kImrsSnapshotRow:
            case LogRecordType::kImrsSnapshotDel: {
              // The snapshot walk and the CoW stash can both serialize the
              // same row; the first record wins (they are identical).
              if (row != nullptr) break;
              int64_t bytes = 0;
              Result<ImrsRow*> created = imrs_->CreateRow(
                  rid, op.table_id, op.partition_id,
                  static_cast<RowSource>(op.source), Slice(op.after),
                  /*txn_id=*/0, /*now=*/cts, &bytes);
              if (!created.ok()) {
                apply_status = created.status();
                break;
              }
              RowVersion* head =
                  (*created)->latest.load(std::memory_order_acquire);
              head->commit_ts.store(cts, std::memory_order_release);
              if (op.type == LogRecordType::kImrsSnapshotDel) {
                head->is_delete = true;  // tombstone masking its page home
              }
              pstate->metrics.imrs_bytes.Add(bytes);
              pstate->metrics.imrs_rows.Add(1);
              break;
            }
            case LogRecordType::kImrsInsert: {
              if (row != nullptr) break;  // duplicate insert cannot happen
              int64_t bytes = 0;
              Result<ImrsRow*> created = imrs_->CreateRow(
                  rid, op.table_id, op.partition_id,
                  static_cast<RowSource>(op.source), Slice(op.after),
                  /*txn_id=*/0, /*now=*/cts, &bytes);
              if (!created.ok()) {
                apply_status = created.status();
                break;
              }
              (*created)->latest.load(std::memory_order_acquire)
                  ->commit_ts.store(cts, std::memory_order_release);
              pstate->metrics.imrs_bytes.Add(bytes);
              pstate->metrics.imrs_rows.Add(1);
              break;
            }
            case LogRecordType::kImrsUpdate:
            case LogRecordType::kImrsDelete: {
              if (row == nullptr) break;  // packed earlier in the log
              const bool is_delete = op.type == LogRecordType::kImrsDelete;
              const std::string& data = is_delete ? op.before : op.after;
              // Replace the latest version: pre-crash history is
              // unreachable by every post-recovery snapshot.
              RowVersion* old = row->latest.load(std::memory_order_acquire);
              int64_t bytes = 0;
              Result<RowVersion*> added = imrs_->AddVersion(
                  row, Slice(data), is_delete, /*txn_id=*/0, &bytes);
              if (!added.ok()) {
                apply_status = added.status();
                break;
              }
              (*added)->commit_ts.store(cts, std::memory_order_release);
              (*added)->older.store(nullptr, std::memory_order_release);
              pstate->metrics.imrs_bytes.Add(bytes);
              if (old != nullptr) {
                pstate->metrics.imrs_bytes.Sub(
                    ImrsStore::FragmentCharge(old));
                imrs_->FreeVersion(old);
              }
              row->Touch(cts);
              break;
            }
            case LogRecordType::kImrsPack: {
              if (row == nullptr) break;
              const int64_t footprint = ImrsStore::RowFootprint(row);
              rid_map_.Erase(rid);
              RowVersion* v = row->latest.load(std::memory_order_acquire);
              while (v != nullptr) {
                RowVersion* next = v->older.load(std::memory_order_relaxed);
                imrs_->FreeVersion(v);
                v = next;
              }
              imrs_->FreeRow(row);
              pstate->metrics.imrs_bytes.Sub(footprint);
              pstate->metrics.imrs_rows.Sub(1);
              break;
            }
            default:
              break;
          }
        }
      });
    }
    run_sharded(std::move(tasks));
    for (const Status& st : shard_status) {
      BTRIM_RETURN_IF_ERROR(st);
    }
  }

  // --- drop fully-dead tombstones -------------------------------------------
  // Replay resurrects every logged tombstone, but GC's IMRS-side free is
  // unlogged, so some of them were already collected before the crash. A
  // committed tombstone earns its keep only by masking a still-materialized
  // page-store home (older in-memory snapshots are gone after a crash);
  // when no home exists — the row never had one (kInserted), or GC's purge
  // transaction (a kPsDelete winner, redone above) emptied it — keeping the
  // row is not just wasteful but wrong: its rebuilt index entry would
  // shadow a later re-insert of the same key, and a purged home makes it a
  // row GC cannot purge again. Complete the free here instead.
  {
    struct DeadRow {
      Rid rid;
      ImrsRow* row;
      PartitionState* pstate;
    };
    std::vector<DeadRow> dead;
    rid_map_.ForEach([&](Rid rid, ImrsRow* row) {
      RowVersion* latest = ImrsStore::LatestCommitted(row);
      if (latest == nullptr || !latest->is_delete) return;
      Rid decoded;
      TablePartition* part = part_for_rid(rid.Encode(), &decoded);
      if (part == nullptr || part->heap->Exists(rid) ||
          cold_->Exists(rid)) {
        return;  // still masks a materialized home (heap or cold-columnar)
      }
      dead.push_back(DeadRow{rid, row, part->ilm});
    });
    for (const DeadRow& d : dead) {
      const int64_t footprint = ImrsStore::RowFootprint(d.row);
      rid_map_.Erase(d.rid);
      RowVersion* v = d.row->latest.load(std::memory_order_acquire);
      while (v != nullptr) {
        RowVersion* next = v->older.load(std::memory_order_relaxed);
        imrs_->FreeVersion(v);
        v = next;
      }
      imrs_->FreeRow(d.row);
      d.pstate->metrics.imrs_bytes.Sub(footprint);
      d.pstate->metrics.imrs_rows.Sub(1);
    }
  }

  // --- restore allocation cursors (serial merge, before any heap scan) ------
  // The cursor must cover every RID named in a log or snapshot record and
  // every occupied slot of the durable page images: a checkpoint drops the
  // log prefix, so checkpointed rows' RIDs survive only as page contents or
  // snapshot rows, and a cursor short of them would re-issue their RIDs
  // (overwriting durable rows) and hide them from the index-rebuild scan
  // below.
  CursorTracker cursors;
  for (const CursorTracker& shard : shard_cursors) cursors.Merge(shard);
  // Cold rows' heap slots are vacated at pack, so MaxDurableRow cannot see
  // them, and after a drop their rids survive only in the segment
  // file — sweep the cold index so AllocateRid never re-issues them.
  cold_->ForEachRid([&](Rid rid) {
    Rid decoded;
    TablePartition* part = part_for_rid(rid.Encode(), &decoded);
    if (part != nullptr) cursors.See(decoded, part->heap->slots_per_page());
  });
  for (Table* table : Tables()) {
    for (size_t p = 0; p < table->num_partitions(); ++p) {
      HeapFile* heap = table->partition(p).heap.get();
      uint64_t cursor = cursors.CursorFor(heap->file_id());
      const Device* dev = devices_[heap->file_id()].get();
      Result<uint64_t> durable = heap->MaxDurableRow(dev->NumPages());
      if (!durable.ok()) return durable.status();
      heap->SetRowCursor(std::max(cursor, *durable));
    }
  }

  // --- rebuild indexes (sharded: OLC trees take concurrent inserts) ---------
  {
    std::vector<std::function<void()>> tasks;
    // Page-store rows, one task per partition, skipping rows masked by an
    // IMRS-resident row. ScanAll synchronizes on page latches; B+Tree and
    // hash-index inserts are concurrent-safe (OLC / striped locks).
    size_t num_parts = 0;
    for (Table* table : Tables()) num_parts += table->num_partitions();
    // Sized up front: tasks capture pointers into it.
    std::vector<Status> scan_status(num_parts);
    size_t part_idx = 0;
    for (Table* table : Tables()) {
      for (size_t p = 0; p < table->num_partitions(); ++p) {
        Status* out = &scan_status[part_idx++];
        TablePartition* part = &table->partition(p);
        tasks.push_back([this, table, part, out] {
          *out = part->heap->ScanAll([&](Rid rid, Slice payload) {
            if (rid_map_.Lookup(rid) != nullptr) return true;  // IMRS wins
            const std::string pk = table->pk_encoder().KeyForRecord(payload);
            Status is =
                table->primary_index()->Insert(Slice(pk), rid.Encode());
            (void)is;
            for (SecondaryIndex& sec : table->secondaries()) {
              std::string skey = sec.encoder->KeyForRecord(payload);
              if (!sec.def.unique) {
                skey = BTree::MakeNonUniqueKey(Slice(skey), rid);
              }
              is = sec.tree->Insert(Slice(skey), rid.Encode());
              (void)is;
            }
            return true;
          });
        });
      }
    }
    run_sharded(std::move(tasks));
    for (const Status& st : scan_status) {
      BTRIM_RETURN_IF_ERROR(st);
    }
  }
  // Cold-columnar rows (serial sweep: the same IMRS-wins masking rule as
  // the heap scan; no hash-index entries — the hash index is IMRS-only).
  cold_->ForEachLive([this](uint32_t table_id, uint32_t partition_id,
                            Rid rid, const std::string& payload) {
    (void)partition_id;
    if (rid_map_.Lookup(rid) != nullptr) return;  // IMRS wins
    Table* table = GetTable(table_id);
    if (table == nullptr) return;
    const std::string pk = table->pk_encoder().KeyForRecord(Slice(payload));
    Status is = table->primary_index()->Insert(Slice(pk), rid.Encode());
    (void)is;
    for (SecondaryIndex& sec : table->secondaries()) {
      std::string skey = sec.encoder->KeyForRecord(Slice(payload));
      if (!sec.def.unique) {
        skey = BTree::MakeNonUniqueKey(Slice(skey), rid);
      }
      is = sec.tree->Insert(Slice(skey), rid.Encode());
      (void)is;
    }
  });
  {
    // IMRS rows: collect entries once, then shard the sweep.
    std::vector<std::pair<Rid, ImrsRow*>> entries;
    rid_map_.ForEach([&entries](Rid rid, ImrsRow* row) {
      entries.emplace_back(rid, row);
    });
    std::vector<std::function<void()>> tasks;
    for (int s = 0; s < kRecoveryShards; ++s) {
      tasks.push_back([&, s] {
        for (const auto& [rid, row] : entries) {
          if (ShardForRid(rid.Encode()) != s) continue;
          Table* table = GetTable(row->table_id);
          if (table == nullptr) continue;
          RowVersion* latest = ImrsStore::LatestCommitted(row);
          if (latest == nullptr) continue;
          const Slice payload(latest->data(), latest->data_size);
          const std::string pk = table->pk_encoder().KeyForRecord(payload);
          // Tombstones keep their index entries until GC purges them
          // (older snapshots are gone after a crash, but purge also
          // removes the page-store home, so the entries stay until then).
          Status is = table->primary_index()->Insert(Slice(pk), rid.Encode());
          (void)is;
          for (SecondaryIndex& sec : table->secondaries()) {
            std::string skey = sec.encoder->KeyForRecord(payload);
            if (!sec.def.unique) {
              skey = BTree::MakeNonUniqueKey(Slice(skey), rid);
            }
            is = sec.tree->Insert(Slice(skey), rid.Encode());
            (void)is;
          }
          if (!latest->is_delete && table->hash_index() != nullptr) {
            table->hash_index()->Upsert(Slice(pk), row);
          }
          // Rejoin ILM tracking and GC processing.
          ilm_->EnqueueRow(row);
          gc_->EnqueueCommitted(row, /*newly_created=*/false);
        }
      });
    }
    run_sharded(std::move(tasks));
  }

  // --- restore the commit clock and txn-id epoch ----------------------------
  txn_manager_.commit_clock()->Reset(max_cts);
  txn_manager_.AdvancePastTxnId(max_txn_id);
  return Status::OK();
}

}  // namespace btrim
