// DML access methods of the BTrim engine (paper Sec. II, IV, VII).
//
// Every operation resolves the row's current residency through the RID-map
// and transparently works against whichever store holds the truth. ILM
// decision points are marked with the paper section they implement.

#include "engine/database.h"
#include "wal/log_record.h"

namespace btrim {

namespace {

std::string SecondaryKey(const SecondaryIndex& sec, Slice record, Rid rid) {
  std::string key = sec.encoder->KeyForRecord(record);
  if (!sec.def.unique) {
    return BTree::MakeNonUniqueKey(Slice(key), rid);
  }
  return key;
}

/// The version a write under the exclusive row lock builds on: the
/// transaction's own uncommitted head (a repeated write in one transaction)
/// or else the newest committed version. Null when the row is deleted.
RowVersion* WriteBase(ImrsRow* row, uint64_t txn_id) {
  RowVersion* base = row->latest.load(std::memory_order_acquire);
  if (base == nullptr ||
      base->commit_ts.load(std::memory_order_acquire) != 0 ||
      base->txn_id != txn_id) {
    base = ImrsStore::LatestCommitted(row);
  }
  return base == nullptr || base->is_delete ? nullptr : base;
}

}  // namespace

Status Database::LogPageStoreWrite(Transaction* txn, LogRecordType type,
                                   TablePartition* part, Rid rid,
                                   Slice before, Slice after) {
  LogRecord rec;
  rec.type = type;
  rec.txn_id = txn->id();
  rec.table_id = part->ilm->table_id;
  rec.partition_id = part->ilm->partition_id;
  rec.rid = rid.Encode();
  rec.before = before.ToString();
  rec.after = after.ToString();
  BTRIM_RETURN_IF_ERROR(syslogs_->AppendRecord(rec));
  txn->MarkPageStoreChange();
  return Status::OK();
}

Status Database::InsertIndexEntries(Transaction* txn, Table* table,
                                    Slice record, Slice pk, Rid rid) {
  Status s = table->primary_index()->Insert(pk, rid.Encode());
  if (!s.ok()) return s;  // AlreadyExists = unique violation
  txn->AddIntent({.kind = IntentKind::kIndexInsert,
                  .tree = table->primary_index()}, pk);
  for (SecondaryIndex& sec : table->secondaries()) {
    const std::string skey = SecondaryKey(sec, record, rid);
    s = sec.tree->Insert(Slice(skey), rid.Encode());
    if (!s.ok()) return s;
    txn->AddIntent({.kind = IntentKind::kIndexInsert, .tree = sec.tree.get()},
                   skey);
  }
  return Status::OK();
}

void Database::RemoveIndexEntries(Table* table, Slice record, Slice pk,
                                  Rid rid) {
  Status s = table->primary_index()->Delete(pk);
  (void)s;
  for (SecondaryIndex& sec : table->secondaries()) {
    const std::string skey = SecondaryKey(sec, record, rid);
    s = sec.tree->Delete(Slice(skey));
    (void)s;
  }
}

void Database::ApplyWriteSet(Transaction* txn, uint64_t cts) {
  for (const WriteIntent& w : txn->write_set()) {
    switch (w.kind) {
      case IntentKind::kImrsInsert:
      case IntentKind::kImrsUpdate:
      case IntentKind::kImrsDelete:
        // Stamp the version and hand the row to GC, which enqueues a new
        // row at the tail of its ILM queue (Sec. VI.B).
        w.version->commit_ts.store(cts, std::memory_order_release);
        if (w.kind == IntentKind::kImrsDelete) {
          HashIndex<ImrsRow*>* hash = w.table->hash_index();
          if (hash != nullptr) hash->Erase(txn->key(w));
        } else {
          w.row->Touch(cts);
        }
        gc_->EnqueueCommitted(w.row, w.kind == IntentKind::kImrsInsert);
        break;
      case IntentKind::kHeapDelete:
      case IntentKind::kColdDelete:
        // Index entries disappear when the delete commits (lock-based
        // committed reads on page-store rows make this safe; see DESIGN.md).
        RemoveIndexEntries(w.table, txn->image(w), txn->key(w),
                           Rid::Decode(w.rid));
        break;
      default:  // the write is complete as it stands
        break;
    }
  }
}

void Database::RollBackWriteSet(Transaction* txn) {
  const std::vector<WriteIntent>& writes = txn->write_set();
  for (auto it = writes.rbegin(); it != writes.rend(); ++it) {
    const WriteIntent& w = *it;
    const Rid rid = Rid::Decode(w.rid);
    Status s;  // best effort: each undo restores in-memory state
    switch (w.kind) {
      case IntentKind::kIndexInsert:
        s = w.tree->Delete(txn->key(w));
        break;
      case IntentKind::kImrsInsert: {
        // Unregister the row and release its memory after a grace period
        // (other transactions may have dereferenced the uncommitted row
        // while skipping its invisible version).
        rid_map_.Erase(rid);
        HashIndex<ImrsRow*>* hash = w.table->hash_index();
        if (hash != nullptr) hash->Erase(txn->key(w));
        w.partition->metrics.imrs_bytes.Sub(w.bytes);
        w.partition->metrics.imrs_rows.Sub(1);
        const uint64_t now = Now();
        RowVersion* v = w.row->latest.load(std::memory_order_acquire);
        if (v != nullptr) gc_->DeferFree(v, now);
        gc_->DeferFree(w.row, now);
        break;
      }
      case IntentKind::kImrsUpdate:
      case IntentKind::kImrsDelete: {
        RowVersion* popped = imrs_->PopUncommitted(w.row, txn->id());
        if (popped != nullptr) {
          w.partition->metrics.imrs_bytes.Sub(w.bytes);
          gc_->DeferFree(popped, Now());
        }
        break;
      }
      case IntentKind::kImrsPack:
        // Redo only: a failed pack commit keeps the heap placements, since
        // the rows have already left the IMRS (see PackBatch).
        break;
      case IntentKind::kHeapInsert:
        s = w.heap->Delete(rid);
        break;
      case IntentKind::kHeapUpdate:
        s = w.heap->Update(rid, txn->image(w));
        break;
      case IntentKind::kHeapDelete:
        s = w.heap->Place(rid, txn->image(w));
        break;
      case IntentKind::kColdErase:
      case IntentKind::kColdDelete:
        s = cold_->Place(w.partition->table_id, w.partition->partition_id,
                         rid, txn->image(w));
        break;
    }
    (void)s;
  }
}

Status Database::InsertToImrs(Transaction* txn, Table* table,
                              TablePartition* part, Rid rid, Slice record,
                              Slice pk, RowSource source) {
  int64_t bytes = 0;
  Result<ImrsRow*> created =
      imrs_->CreateRow(rid, table->id(), part->ilm->partition_id, source,
                       record, txn->id(), Now(), &bytes);
  if (!created.ok()) return created.status();
  ImrsRow* row = *created;

  PartitionState* pstate = part->ilm;
  pstate->metrics.imrs_bytes.Add(bytes);
  pstate->metrics.imrs_rows.Add(1);
  switch (source) {
    case RowSource::kInserted:
      pstate->metrics.inserts_imrs.Inc();
      break;
    case RowSource::kMigrated:
      pstate->metrics.migrations.Inc();
      break;
    case RowSource::kCached:
      pstate->metrics.cachings.Inc();
      break;
  }

  HashIndex<ImrsRow*>* hash = table->hash_index();
  if (hash != nullptr) hash->Upsert(pk, row);

  txn->AddIntent({.kind = IntentKind::kImrsInsert, .rid = rid.Encode(),
                  .bytes = bytes, .table = table, .partition = pstate,
                  .row = row,
                  .version = row->latest.load(std::memory_order_acquire)},
                 pk);
  return Status::OK();
}

Status Database::InsertToPageStore(Transaction* txn, TablePartition* part,
                                   Rid rid, Slice record) {
  BTRIM_RETURN_IF_ERROR(LogPageStoreWrite(txn, LogRecordType::kPsInsert,
                                          part, rid, Slice(), record));

  bool contended = false;
  Status s = part->heap->Place(rid, record, &contended);
  part->ilm->metrics.page_ops.Inc();
  if (contended) part->ilm->metrics.page_contention.Inc();
  if (!s.ok()) return s;
  txn->AddIntent({.kind = IntentKind::kHeapInsert, .rid = rid.Encode(),
                  .heap = part->heap.get()});
  return Status::OK();
}

Status Database::Insert(Transaction* txn, Table* table, Slice record) {
  TablePartition& part = table->PartitionForRecord(record);
  const std::string pk = table->pk_encoder().KeyForRecord(record);
  const Rid rid = part.heap->AllocateRid();

  BTRIM_RETURN_IF_ERROR(txn->AcquireLock(rid.Encode(), LockMode::kExclusive,
                                         options_.lock_timeout_ms));
  BTRIM_RETURN_IF_ERROR(InsertIndexEntries(txn, table, record, Slice(pk), rid));

  // ILM decision (Sec. IV): inserts are directed to the IMRS unless the
  // partition is tuner-disabled or pack backpressure is active; a full
  // cache (NoSpace) falls back to the page store.
  if (ilm_->ShouldInsertToImrs(part.ilm)) {
    Status s = InsertToImrs(txn, table, &part, rid, record, Slice(pk),
                            RowSource::kInserted);
    if (s.ok()) {
      imrs_ops_.Inc();
      return Status::OK();
    }
    if (!s.IsNoSpace()) return s;
  }
  Status s = InsertToPageStore(txn, &part, rid, record);
  if (s.ok()) page_ops_.Inc();
  return s;
}

Status Database::LocateByKey(Table* table, Slice pk, Located* loc) {
  // Fast path: the non-logged hash index over IMRS rows (Sec. II).
  HashIndex<ImrsRow*>* hash = table->hash_index();
  if (hash != nullptr) {
    ImrsRow* row = hash->Lookup(pk, nullptr);
    if (row != nullptr && !row->HasFlag(kRowPacked) &&
        !row->HasFlag(kRowPurged)) {
      loc->row = row;
      loc->rid = row->rid;
      loc->part = table->PartitionForRid(row->rid);
      if (loc->part != nullptr) return Status::OK();
    }
  }
  // Unique BTree + RID-map path.
  Result<uint64_t> rid_enc = table->primary_index()->Search(pk);
  if (!rid_enc.ok()) return rid_enc.status();
  loc->rid = Rid::Decode(*rid_enc);
  loc->part = table->PartitionForRid(loc->rid);
  if (loc->part == nullptr) {
    return Status::Corruption("RID " + loc->rid.ToString() +
                              " maps to no partition");
  }
  loc->row = rid_map_.Lookup(loc->rid);
  return Status::OK();
}

Status Database::ReadVisible(Transaction* txn, const Located& loc,
                             std::string* out, bool* from_imrs) {
  *from_imrs = false;
  // Settles the read from `row`'s IMRS versions when they decide it (into
  // `status`); false when the page-store image is the visible one.
  Status status;
  auto read_imrs = [&](ImrsRow* row) {
    RowVersion* v =
        ImrsStore::VisibleVersion(row, txn->begin_ts(), txn->id());
    if (v == nullptr) {
      // Row born in the IMRS after this snapshot: it does not exist yet for
      // this reader, and it has no page-store image. Otherwise it is a
      // migrated/cached row whose IMRS versions are all newer than the
      // snapshot, so the pre-migration page-store image is the visible one.
      if (row->source != RowSource::kInserted) return false;
      status = Status::NotFound("row newer than snapshot");
      return true;
    }
    if (v->is_delete) {
      status = Status::NotFound("row deleted");
      return true;
    }
    out->assign(v->data(), v->data_size);
    row->Touch(Now());
    loc.part->ilm->metrics.reuse_select.Inc();
    imrs_ops_.Inc();
    *from_imrs = true;
    return true;
  };
  if (loc.row != nullptr && read_imrs(loc.row)) return status;

  // Page-store read under a shared row lock (committed read).
  BTRIM_RETURN_IF_ERROR(txn->AcquireLock(loc.rid.Encode(), LockMode::kShared,
                                         options_.lock_timeout_ms));
  if (loc.row == nullptr) {
    // The row may have migrated into the IMRS while we waited for the lock.
    ImrsRow* row = rid_map_.Lookup(loc.rid);
    if (row != nullptr && read_imrs(row)) return status;
  }
  // A cold-columnar home is still a committed read: cold rows only change
  // under the exclusive row lock our shared lock excludes.
  BTRIM_RETURN_IF_ERROR(ReadPageStoreHome(loc.part, loc.rid, out));
  page_ops_.Inc();
  return Status::OK();
}

Status Database::ReadPageStoreHome(TablePartition* part, Rid rid,
                                   std::string* out, bool* cold_home,
                                   bool* contended) {
  bool heap_contended = false;
  Status s = part->heap->Read(rid, out, &heap_contended);
  part->ilm->metrics.page_ops.Inc();
  if (heap_contended) part->ilm->metrics.page_contention.Inc();
  if (contended != nullptr) *contended = heap_contended;
  bool cold = false;
  if (s.IsNotFound()) {  // Pack may have relocated the row cold-columnar
    s = cold_->ReadRow(rid, out);
    cold = s.ok();
  }
  if (cold_home != nullptr) *cold_home = cold;
  return s;
}

void Database::MaybeCacheOnSelect(Transaction* txn, Table* table,
                                  TablePartition* part, Rid rid, Slice pk,
                                  Slice payload) {
  // ILM decision (Sec. IV): point access through the unique index may cache
  // the page-store row in the IMRS in anticipation of re-access.
  if (!ilm_->ShouldCacheOnSelect(part->ilm, /*unique_index_access=*/true)) {
    return;
  }
  if (rid_map_.Lookup(rid) != nullptr) return;
  // Best effort: upgrade to an exclusive lock without waiting.
  if (!txn->TryAcquireLock(rid.Encode(), LockMode::kExclusive).ok()) return;
  if (rid_map_.Lookup(rid) != nullptr) return;  // re-check under the lock
  Status s = InsertToImrs(txn, table, part, rid, payload, pk,
                          RowSource::kCached);
  (void)s;  // NoSpace etc. simply leaves the row on the page store
}

Status Database::SelectByKey(Transaction* txn, Table* table, Slice pk,
                             std::string* out) {
  Located loc;
  BTRIM_RETURN_IF_ERROR(LocateByKey(table, pk, &loc));
  bool from_imrs = false;
  BTRIM_RETURN_IF_ERROR(ReadVisible(txn, loc, out, &from_imrs));
  if (!from_imrs) {
    MaybeCacheOnSelect(txn, table, loc.part, loc.rid, pk, Slice(*out));
  }
  return Status::OK();
}

Status Database::EditRow(Transaction* txn, const Table& table, Slice base,
                         FunctionRef<void(RowEditor&)> edit, Slice* edited) {
  std::string* image = txn->edit_buffer();
  image->assign(base.data(), base.size());
  RowEditor editor(&table.schema(), image);
  if (!editor.valid()) return Status::Corruption("undecodable row image");
  edit(editor);
  if (editor.too_long()) {
    return Status::InvalidArgument("edit sets a string over its max_len");
  }
  if ((editor.set_columns() & table.placement_columns()) != 0) {
    return Status::InvalidArgument(
        "edit sets a key, index or partition column");
  }
  *edited = Slice(*image);
  return Status::OK();
}

Status Database::UpdateImrsRow(Transaction* txn, Table* table,
                               TablePartition* part, ImrsRow* row,
                               FunctionRef<void(RowEditor&)> edit) {
  RowVersion* base = WriteBase(row, txn->id());
  if (base == nullptr) return Status::NotFound("row deleted");
  Slice payload;
  BTRIM_RETURN_IF_ERROR(EditRow(txn, *table, base->payload(), edit, &payload));

  int64_t bytes = 0;
  Result<RowVersion*> added = imrs_->AddVersion(row, payload,
                                                /*is_delete=*/false,
                                                txn->id(), &bytes);
  if (!added.ok()) return added.status();

  PartitionState* pstate = part->ilm;
  pstate->metrics.imrs_bytes.Add(bytes);
  pstate->metrics.reuse_update.Inc();
  imrs_ops_.Inc();
  row->Touch(Now());

  txn->AddIntent({.kind = IntentKind::kImrsUpdate, .rid = row->rid.Encode(),
                  .bytes = bytes, .partition = pstate, .row = row,
                  .version = *added});
  return Status::OK();
}

Status Database::UpdatePageStoreRow(Transaction* txn, Table* table,
                                    TablePartition* part, Rid rid, Slice pk,
                                    FunctionRef<void(RowEditor&)> edit) {
  std::string before;
  bool cold_home = false;
  bool contended = false;
  BTRIM_RETURN_IF_ERROR(
      ReadPageStoreHome(part, rid, &before, &cold_home, &contended));
  Slice payload;
  BTRIM_RETURN_IF_ERROR(EditRow(txn, *table, Slice(before), edit, &payload));

  // ILM decision (Sec. IV): a point update of a page-store row migrates it
  // into the IMRS (unique-index access anticipates re-access; observed page
  // contention argues the same way).
  if (ilm_->ShouldMigrateOnUpdate(part->ilm, /*unique_index_access=*/true,
                                  contended)) {
    Status ms = InsertToImrs(txn, table, part, rid, payload, pk,
                             RowSource::kMigrated);
    if (ms.ok()) {
      imrs_ops_.Inc();
      return Status::OK();
    }
    if (!ms.IsNoSpace()) return ms;
  }

  if (cold_home) {
    // A written cold row turns hot again: erase the cold home (logged) and
    // give the new image a heap slot. Keeping updates out of the cold store
    // means it only ever holds committed images, which is what lets the
    // HTAP scan read segments and staged rows lock-free.
    BTRIM_RETURN_IF_ERROR(LogPageStoreWrite(txn, LogRecordType::kColdErase,
                                            part, rid, before, Slice()));
    cold_->Erase(rid);
    txn->AddIntent({.kind = IntentKind::kColdErase, .rid = rid.Encode(),
                    .partition = part->ilm}, Slice(), before);
    Status ps = InsertToPageStore(txn, part, rid, payload);
    if (ps.ok()) page_ops_.Inc();
    return ps;
  }

  // In-place page-store update (redo-undo logged).
  BTRIM_RETURN_IF_ERROR(LogPageStoreWrite(txn, LogRecordType::kPsUpdate, part,
                                          rid, before, payload));

  bool contended2 = false;
  Status s = part->heap->Update(rid, payload, &contended2);
  if (contended2) part->ilm->metrics.page_contention.Inc();
  if (!s.ok()) return s;
  page_ops_.Inc();
  txn->AddIntent({.kind = IntentKind::kHeapUpdate, .rid = rid.Encode(),
                  .heap = part->heap.get()}, Slice(), before);
  return Status::OK();
}

Status Database::Update(Transaction* txn, Table* table, Slice pk,
                        FunctionRef<void(RowEditor&)> edit) {
  Located loc;
  BTRIM_RETURN_IF_ERROR(LocateByKey(table, pk, &loc));
  BTRIM_RETURN_IF_ERROR(txn->AcquireLock(loc.rid.Encode(),
                                         LockMode::kExclusive,
                                         options_.lock_timeout_ms));
  // Residency may have changed while waiting for the lock (migration by
  // another transaction, or Pack relocating the row) — re-resolve.
  ImrsRow* row = rid_map_.Lookup(loc.rid);
  if (row != nullptr) {
    return UpdateImrsRow(txn, table, loc.part, row, edit);
  }
  return UpdatePageStoreRow(txn, table, loc.part, loc.rid, pk, edit);
}

Status Database::Delete(Transaction* txn, Table* table, Slice pk) {
  Located loc;
  BTRIM_RETURN_IF_ERROR(LocateByKey(table, pk, &loc));
  BTRIM_RETURN_IF_ERROR(txn->AcquireLock(loc.rid.Encode(),
                                         LockMode::kExclusive,
                                         options_.lock_timeout_ms));
  ImrsRow* row = rid_map_.Lookup(loc.rid);

  if (row != nullptr) {
    RowVersion* base = WriteBase(row, txn->id());
    if (base == nullptr) return Status::NotFound("row deleted");
    // The delete marker carries the final payload so GC's purge can rebuild
    // the index keys (see Database::PurgePageStoreHome).
    int64_t bytes = 0;
    Result<RowVersion*> added = imrs_->AddVersion(row, base->payload(),
                                                  /*is_delete=*/true,
                                                  txn->id(), &bytes);
    if (!added.ok()) return added.status();

    PartitionState* pstate = loc.part->ilm;
    pstate->metrics.imrs_bytes.Add(bytes);
    pstate->metrics.reuse_delete.Inc();
    imrs_ops_.Inc();
    txn->AddIntent({.kind = IntentKind::kImrsDelete, .rid = row->rid.Encode(),
                    .bytes = bytes, .table = table, .partition = pstate,
                    .row = row, .version = *added}, pk);
    return Status::OK();
  }

  // Page-store delete.
  std::string before;
  bool cold_home = false;
  BTRIM_RETURN_IF_ERROR(
      ReadPageStoreHome(loc.part, loc.rid, &before, &cold_home));
  if (cold_home) {
    // Cold-columnar home: logged erase; like the heap path, the index
    // entries drop at commit.
    BTRIM_RETURN_IF_ERROR(LogPageStoreWrite(txn, LogRecordType::kColdErase,
                                            loc.part, loc.rid, before,
                                            Slice()));
    cold_->Erase(loc.rid);
    page_ops_.Inc();
    txn->AddIntent({.kind = IntentKind::kColdDelete, .rid = loc.rid.Encode(),
                    .table = table, .partition = loc.part->ilm}, pk, before);
    return Status::OK();
  }

  BTRIM_RETURN_IF_ERROR(LogPageStoreWrite(txn, LogRecordType::kPsDelete,
                                          loc.part, loc.rid, before, Slice()));
  BTRIM_RETURN_IF_ERROR(loc.part->heap->Delete(loc.rid));
  page_ops_.Inc();
  txn->AddIntent({.kind = IntentKind::kHeapDelete, .rid = loc.rid.Encode(),
                  .table = table, .heap = loc.part->heap.get()}, pk, before);
  return Status::OK();
}

Status Database::ScanIndex(Transaction* txn, Table* table, int index_no,
                           Slice lower, Slice upper, size_t limit,
                           FunctionRef<bool(const ScanRow&)> visitor) {
  BTree* tree = index_no < 0
                    ? table->primary_index()
                    : table->secondaries()[static_cast<size_t>(index_no)]
                          .tree.get();
  ScanRow row;
  size_t visited = 0;
  Status status;
  BTRIM_RETURN_IF_ERROR(tree->Scan(lower, upper, [&](Slice, uint64_t rid_enc) {
    Located loc;
    loc.rid = Rid::Decode(rid_enc);
    loc.part = table->PartitionForRid(loc.rid);
    if (loc.part == nullptr) return true;
    loc.row = rid_map_.Lookup(loc.rid);
    row.rid = loc.rid;
    status = ReadVisible(txn, loc, &row.payload, &row.from_imrs);
    if (status.IsNotFound()) {  // invisible to this snapshot
      status = Status::OK();
      return true;
    }
    return status.ok() && visitor(row) && (limit == 0 || ++visited < limit);
  }));
  return status;
}

Status Database::ScanIndex(Transaction* txn, Table* table, int index_no,
                           Slice lower, Slice upper, size_t limit,
                           std::vector<ScanRow>* out) {
  return ScanIndex(txn, table, index_no, lower, upper, limit,
                   [out](const ScanRow& row) {
                     out->push_back(row);
                     return true;
                   });
}

}  // namespace btrim
