#include "engine/session.h"

#include "engine/schema.h"
#include "engine/table.h"

namespace btrim {

Session::~Session() {
  if (txn_ != nullptr) {
    (void)db_->Abort(txn_.get());
    txn_.reset();
  }
}

Status Session::Begin() {
  if (txn_ != nullptr) {
    return Status::InvalidArgument("transaction already open");
  }
  txn_ = db_->Begin();
  return Status::OK();
}

Status Session::Commit() {
  if (txn_ == nullptr) return Status::InvalidArgument("no open transaction");
  Status s = db_->Commit(txn_.get());
  txn_.reset();
  return s;
}

Status Session::Abort() {
  if (txn_ == nullptr) return Status::InvalidArgument("no open transaction");
  Status s = db_->Abort(txn_.get());
  txn_.reset();
  return s;
}

Result<Table*> Session::ResolveKv(const std::string& name) {
  Table* table = db_->GetTable(name);
  if (table == nullptr) return Status::NotFound("no such table: " + name);
  const Schema& schema = table->schema();
  const bool kv_shaped = schema.num_columns() == 2 &&
                         schema.column(0).type == ColumnType::kInt64 &&
                         schema.column(1).type == ColumnType::kString &&
                         table->pk_encoder().key_columns() ==
                             std::vector<int>{0};
  if (!kv_shaped) {
    return Status::InvalidArgument("table is not kv-shaped: " + name);
  }
  return table;
}

Status Session::RunOp(const std::function<Status(Transaction*)>& op) {
  if (txn_ != nullptr) {
    Status s = op(txn_.get());
    if (!s.ok()) {
      (void)db_->Abort(txn_.get());
      txn_.reset();
    }
    return s;
  }
  std::unique_ptr<Transaction> txn = db_->Begin();
  Status s = op(txn.get());
  if (s.ok()) {
    s = db_->Commit(txn.get());
  } else {
    (void)db_->Abort(txn.get());
  }
  return s;
}

Status Session::Get(const std::string& table_name, int64_t key,
                    std::string* value) {
  Result<Table*> table = ResolveKv(table_name);
  if (!table.ok()) return table.status();
  return RunOp([&](Transaction* txn) {
    std::string record;
    BTRIM_RETURN_IF_ERROR(db_->SelectByKey(
        txn, *table, (*table)->pk_encoder().KeyForInts({key}), &record));
    RecordView view(&(*table)->schema(), record);
    if (!view.valid()) return Status::Corruption("undecodable kv record");
    *value = view.GetString(1).ToString();
    return Status::OK();
  });
}

Status Session::Put(const std::string& table_name, int64_t key, Slice value) {
  Result<Table*> table = ResolveKv(table_name);
  if (!table.ok()) return table.status();
  if (value.size() > (*table)->schema().column(1).max_len) {
    return Status::InvalidArgument("value exceeds column max_len");
  }
  return RunOp([&](Transaction* txn) {
    const std::string pk = (*table)->pk_encoder().KeyForInts({key});
    Status s = db_->Update(txn, *table, pk,
                           [&](RowEditor& e) { e.SetString(1, value); });
    if (s.IsNotFound()) {
      RecordBuilder builder(&(*table)->schema());
      builder.AddInt64(key).AddString(value);
      s = db_->Insert(txn, *table, builder.Finish());
    }
    return s;
  });
}

Status Session::Scan(const std::string& table_name, int64_t start_key,
                     size_t limit, std::vector<Row>* rows) {
  rows->clear();
  Result<Table*> table = ResolveKv(table_name);
  if (!table.ok()) return table.status();
  if (limit == 0) return Status::OK();
  return RunOp([&](Transaction* txn) {
    bool valid = true;
    BTRIM_RETURN_IF_ERROR(db_->ScanIndex(
        txn, *table, /*index_no=*/-1,
        (*table)->pk_encoder().KeyForInts({start_key}), Slice(), limit,
        [&](const ScanRow& r) {
          RecordView view(&(*table)->schema(), r.payload);
          if (!(valid = view.valid())) return false;
          rows->push_back(Row{view.GetInt64(0), view.GetString(1).ToString()});
          return true;
        }));
    return valid ? Status::OK() : Status::Corruption("undecodable kv record");
  });
}

}  // namespace btrim
