// Overlapped consistent-snapshot checkpoint (DESIGN.md Sec. 14).
//
// The quiescent checkpoint this replaces held a background gate exclusively
// for the whole flush + sync sequence: every pack cycle, GC pass, and (via
// the paranoid validator's pause) foreground commit stalled behind it. The
// overlapped protocol reduces the foreground stall to one short begin
// barrier and runs everything else concurrently with commits, pack, and GC:
//
//   0. Rollover. Outside any pause, both logs sync and start a new segment;
//      step 4 drops what lies before it.
//
//   1. Begin barrier. PauseNewTransactions drains the active set, so every
//      commit with cts <= snapshot_ts is *fully applied* in memory (version
//      timestamps stamped, index entries in place) — the snapshot epoch is
//      a clean cut, not a fuzzy one. While still paused, kCheckpointBegin
//      is appended to both logs: with commits quiesced, a sysimrslogs group
//      lies before the begin record iff its cts <= snapshot_ts. The epoch
//      is pinned into the GC horizon (TransactionManager::PinSnapshot) and
//      the CoW stash armed; then the foreground resumes. This pause is the
//      only commit stall the checkpoint causes.
//
//   2. Snapshot walk (fully overlapped). The RID-map is walked stripe by
//      stripe; each row's snapshot-visible version (VisibleVersion at
//      snapshot_ts) is serialized as kImrsSnapshotRow / kImrsSnapshotDel
//      and appended to sysimrslogs in chunks. Chunks are AppendGroup calls,
//      atomic against concurrent commit groups, so the log interleaves
//      snapshot data and live commits at group granularity. Consistency
//      under concurrency rests on three mechanisms:
//        - version chains are natural copy-on-write: post-snapshot updates
//          *prepend* versions, so the snapshot-visible version survives
//          untouched and VisibleVersion still finds it;
//        - the pinned epoch clamps OldestActiveSnapshot, so GC trimming,
//          purge, and the deferred-free grace list keep every snapshot-era
//          version (and walked row pointers) alive for the walk's duration;
//        - the one destructive path — pack / purge evicting a whole row
//          from the RID-map — first stashes the row's snapshot-visible
//          pre-image into the checkpoint side buffer via
//          StashCheckpointPreImage, so a row the walk has not reached yet
//          is never lost.
//
//   3. Stash drain + durability barrier. The stash is closed (under its
//      leaf lock, atomically with clearing `active`) and flushed as the
//      final snapshot chunk. Any row evicted after the drain was present in
//      its RID-map slot for the entire walk and has therefore already
//      been serialized. Then the classic barrier runs — flush dirty pages,
//      force both logs, sync the data devices — and kCheckpointEnd (synced)
//      seals the pair. Recovery rebases onto the newest *complete*
//      begin/end pair; a torn checkpoint is ignored wholesale.
//
//   4. Drop. With the end pair durable, both logs drop every segment
//      before the step-0 rollover: the one thing that bounds them.
//
// Lock order: checkpoint_mu_ (kCheckpointGate, outermost — one
// checkpointer at a time) -> log internals (the RID-map walk itself is
// lock-free). The stash lock (kCheckpointStash) is a leaf taken by pack/GC
// eviction paths and by the drain.

#include <algorithm>
#include <chrono>

#include "engine/database.h"
#include "obs/trace_ring.h"
#include "wal/log_record.h"

namespace btrim {

namespace {

/// Snapshot chunk size: large enough to amortize append overhead, small
/// enough that crash points (torture harness) land between chunks mid-walk.
constexpr size_t kSnapshotChunkBytes = 64 * 1024;

int64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

bool Database::AppendSnapshotRecord(ImrsRow* row, uint64_t snapshot_ts,
                                    std::string* dst) {
  RowVersion* v = ImrsStore::VisibleVersion(row, snapshot_ts, /*txn_id=*/0);
  if (v == nullptr) return false;  // born after the snapshot, or uncommitted
  const uint64_t cts = v->commit_ts.load(std::memory_order_acquire);
  if (cts == 0 || cts > snapshot_ts) return false;

  LogRecord rec;
  rec.type = v->is_delete ? LogRecordType::kImrsSnapshotDel
                          : LogRecordType::kImrsSnapshotRow;
  // The txn_id field carries the owning checkpoint's snapshot epoch, so
  // recovery can tell this checkpoint's snapshot rows apart from an older
  // (superseded or torn) checkpoint's. cts keeps the version's real commit
  // timestamp and is re-stamped verbatim at replay.
  rec.txn_id = snapshot_ts;
  rec.table_id = row->table_id;
  rec.partition_id = row->partition_id;
  rec.rid = row->rid.Encode();
  rec.cts = cts;
  rec.source = static_cast<uint8_t>(row->source);
  rec.after.assign(v->data(), v->data_size);
  AppendLogRecord(dst, rec);
  return true;
}

void Database::StashCheckpointPreImage(ImrsRow* row) {
  // Fast path: no checkpoint in flight (one relaxed-ish load per eviction).
  if (!ckpt_.active.load(std::memory_order_acquire)) return;
  const uint64_t snapshot_ts =
      ckpt_.snapshot_ts.load(std::memory_order_acquire);
  std::string buf;
  if (!AppendSnapshotRecord(row, snapshot_ts, &buf)) return;
  SpinLockGuard guard(ckpt_.stash_mu);
  // Re-check under the lock: the drain clears `active` while holding
  // stash_mu, so a record either lands before the drain (and is flushed
  // with it) or observes the cleared flag here and is dropped — by then
  // the walk itself has covered the row (it stayed in its stripe for the
  // walk's whole duration). `active` cannot have been re-armed for a
  // *different* checkpoint in between: arming requires the begin barrier
  // to drain all active transactions, including the one this eviction
  // belongs to.
  if (!ckpt_.active.load(std::memory_order_relaxed)) return;
  ckpt_.stash.append(buf);
  ++ckpt_.stash_records;
}

Status Database::Checkpoint() {
  obs::TraceSpan span(obs::TraceRing::Global(), "checkpoint", "engine");
  MutexGuard gate(checkpoint_mu_);  // one checkpointer at a time
  const auto start = std::chrono::steady_clock::now();

  // --- Phase 0: rollover, before the pause so the pause does no I/O -------
  Result<uint64_t> syslogs_mark = syslogs_->RollOver();
  BTRIM_RETURN_IF_ERROR(syslogs_mark.status());
  Result<uint64_t> sysimrslogs_mark = sysimrslogs_->RollOver();
  BTRIM_RETURN_IF_ERROR(sysimrslogs_mark.status());

  uint64_t snapshot_ts = 0;
  int pin = -1;
  Status status;

  {
    // Phases 1-3 run while pack cycles and GC passes keep going.

    // --- Phase 1: begin barrier (the only foreground stall) ---------------
    {
      const auto pause_start = std::chrono::steady_clock::now();
      if (!txn_manager_.PauseNewTransactions(options_.lock_timeout_ms)) {
        return Status::Busy("checkpoint begin barrier: active transactions "
                            "did not drain");
      }
      snapshot_ts = txn_manager_.CurrentTimestamp();
      pin = txn_manager_.PinSnapshot(snapshot_ts);
      if (pin < 0) {
        txn_manager_.ResumeNewTransactions();
        return Status::Busy("no snapshot pin slot available");
      }
      {
        SpinLockGuard guard(ckpt_.stash_mu);
        ckpt_.snapshot_ts.store(snapshot_ts, std::memory_order_release);
        ckpt_.active.store(true, std::memory_order_release);
      }
      // Begin records, appended while commits are quiesced: every group
      // ahead of this record has cts <= snapshot_ts, every one after it
      // cts > snapshot_ts. No sync needed here — a begin without a durable
      // end is ignored by recovery either way.
      LogRecord begin;
      begin.type = LogRecordType::kCheckpointBegin;
      begin.cts = snapshot_ts;
      status = sysimrslogs_->AppendRecord(begin);
      if (status.ok()) status = syslogs_->AppendRecord(begin);
      txn_manager_.ResumeNewTransactions();

      const int64_t pause_us = ElapsedUs(pause_start);
      ckpt_.last_pause_us.store(pause_us, std::memory_order_relaxed);
      int64_t prev_max = ckpt_.max_pause_us.load(std::memory_order_relaxed);
      while (pause_us > prev_max &&
             !ckpt_.max_pause_us.compare_exchange_weak(
                 prev_max, pause_us, std::memory_order_relaxed)) {
      }
    }

    // --- Phase 2: snapshot walk, fully overlapped -------------------------
    int64_t walk_rows = 0;
    if (status.ok()) {
      std::string chunk;
      int64_t chunk_records = 0;
      rid_map_.ForEach([&](Rid rid, ImrsRow* row) {
        (void)rid;
        if (!status.ok()) return;
        // Rows already flagged for eviction went (or are going) through
        // StashCheckpointPreImage; skipping them here avoids double
        // serialization (replay tolerates duplicates regardless).
        if (row->HasFlag(kRowPurged) || row->HasFlag(kRowPacked)) return;
        if (AppendSnapshotRecord(row, snapshot_ts, &chunk)) {
          ++chunk_records;
          ++walk_rows;
        }
        if (chunk.size() >= kSnapshotChunkBytes) {
          status = sysimrslogs_->AppendGroup(Slice(chunk), chunk_records);
          chunk.clear();
          chunk_records = 0;
        }
      });
      if (status.ok() && !chunk.empty()) {
        status = sysimrslogs_->AppendGroup(Slice(chunk), chunk_records);
      }
    }

    // --- Phase 3: stash drain, durability barrier, end record -------------
    // Always disarm the stash, even on error, so eviction paths stop
    // feeding a dead checkpoint.
    std::string stash;
    int64_t stash_records = 0;
    {
      SpinLockGuard guard(ckpt_.stash_mu);
      ckpt_.active.store(false, std::memory_order_release);
      stash.swap(ckpt_.stash);
      stash_records = ckpt_.stash_records;
      ckpt_.stash_records = 0;
    }
    if (status.ok() && !stash.empty()) {
      status = sysimrslogs_->AppendGroup(Slice(stash), stash_records);
    }

    if (status.ok()) {
      // WAL rule at the durability boundary: force both logs before the
      // device sync barrier makes the flushed pages durable (unconditional:
      // checkpoint is the periodic durability point even under kNoSync).
      status = buffer_cache_.FlushAll();
      // Cold-columnar homes join the same barrier: every staged cold row is
      // sealed and the segment file synced, so pages, logs, and cold
      // segments all reach the device before the end record.
      if (status.ok()) status = cold_->Flush();
      if (status.ok()) status = syslogs_->SyncStorage();
      if (status.ok()) status = sysimrslogs_->SyncStorage();
      for (const auto& dev : devices_) {
        if (!status.ok()) break;
        if (dev != nullptr) status = dev->Sync();
      }
    }
    if (status.ok()) {
      // Seal the pair. The end record becomes durable only after every
      // snapshot chunk and data page above it; recovery trusts a
      // begin/end pair only when both records (same cts) made it down.
      LogRecord end;
      end.type = LogRecordType::kCheckpointEnd;
      end.cts = snapshot_ts;
      status = sysimrslogs_->AppendRecord(end);
      if (status.ok()) status = sysimrslogs_->SyncStorage();
      if (status.ok()) status = syslogs_->AppendRecord(end);
      if (status.ok()) status = syslogs_->SyncStorage();
    }
    if (status.ok()) {
      ckpt_.completed.Inc();
      ckpt_.snapshot_rows.Add(walk_rows + stash_records);
      ckpt_.stashed_rows.Add(stash_records);
    }
  }  // phases 1-3

  txn_manager_.UnpinSnapshot(pin);
  BTRIM_RETURN_IF_ERROR(status);

  // --- Phase 4: drop what the checkpoint covers ---------------------------
  // Safe with the end pair durable in both logs (DESIGN.md Sec. 14.3):
  //   - The begin barrier drained the active set, so every transaction with
  //     a syslogs record before the rollover finished (an abort rolled back
  //     in memory) before the begin record, and phase 3 made its heap and
  //     cold effects durable. Recovery replays syslogs from the newest
  //     complete begin record on, so it needs none of them.
  //   - Every sysimrslogs group before the rollover precedes the begin
  //     record; recovery uses the kept snapshot rows instead.
  //   - A mixed-store group committing after the begin record has its
  //     kPsCommit after the rollover: its winner evidence is kept.
  //   - max_cts and max_txn_id come back from the kept records; a dropped
  //     txn id can collide with nothing.
  // An earlier checkpoint that failed after its rollover left segments
  // behind; they lie before this mark and go too.
  BTRIM_RETURN_IF_ERROR(syslogs_->DropBefore(*syslogs_mark));
  BTRIM_RETURN_IF_ERROR(sysimrslogs_->DropBefore(*sysimrslogs_mark));

  ckpt_.last_total_us.store(ElapsedUs(start), std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace btrim
