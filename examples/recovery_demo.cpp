// Recovery demo: the dual-log durability protocol end to end (paper
// Sec. II).
//
//   * committed IMRS rows are rebuilt by redo-only replay of sysimrslogs
//   * committed page-store changes are redone from syslogs
//   * an uncommitted transaction whose dirty page reached disk is undone
//
// The "crash" is a process-level one: the Database object is destroyed
// without checkpointing, then reopened over the same files.
//
//   ./build/examples/recovery_demo

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "engine/database.h"

using namespace btrim;

namespace {

// Named per process, so two runs at once do not delete each other's files.
const std::string kDir = (std::filesystem::temp_directory_path() /
                          ("btrim_recovery_demo_" + std::to_string(getpid())))
                             .string();

TableOptions AccountsSchema() {
  TableOptions topt;
  topt.name = "accounts";
  topt.schema = Schema({
      Column::Int64("id"),
      Column::String("owner", 32),
      Column::Double("balance"),
  });
  topt.primary_key = {0};
  return topt;
}

std::unique_ptr<Database> OpenDb() {
  DatabaseOptions options;
  options.in_memory = false;
  options.data_dir = kDir;
  Result<std::unique_ptr<Database>> opened = Database::Open(options);
  if (!opened.ok()) {
    fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    exit(1);
  }
  return std::move(*opened);
}

}  // namespace

int main() {
  std::filesystem::remove_all(kDir);
  std::filesystem::create_directories(kDir);

  printf("Run 1: populate and crash.\n");
  {
    std::unique_ptr<Transaction> loser;  // outlives `db`, as in a crash
    std::unique_ptr<Database> db = OpenDb();
    Table* accounts = *db->CreateTable(AccountsSchema());

    // 20 committed IMRS-resident accounts.
    for (int64_t id = 1; id <= 20; ++id) {
      auto txn = db->Begin();
      RecordBuilder b(&accounts->schema());
      b.AddInt64(id).AddString("owner" + std::to_string(id)).AddDouble(100.0);
      Status s = db->Insert(txn.get(), accounts, b.Finish());
      if (s.ok()) s = db->Commit(txn.get());
      if (!s.ok()) return 1;
    }
    // A committed page-store row (bulk-load mode).
    db->ilm()->SetForcePageStore(true);
    {
      auto txn = db->Begin();
      RecordBuilder b(&accounts->schema());
      b.AddInt64(777).AddString("disk-resident").AddDouble(7.0);
      Status s = db->Insert(txn.get(), accounts, b.Finish());
      if (s.ok()) s = db->Commit(txn.get());
      if (!s.ok()) return 1;
    }
    db->ilm()->SetForcePageStore(false);

    // An uncommitted transaction whose dirty page is stolen to disk.
    loser = db->Begin();
    Status s = db->Update(loser.get(), accounts,
                          accounts->pk_encoder().KeyForInts({777}),
                          [&](RowEditor& e) {
                            e.SetDouble(2, 999999.0);  // never committed
                          });
    if (!s.ok()) return 1;
    s = db->buffer_cache()->FlushAll();
    if (!s.ok()) return 1;

    printf("  committed: 20 IMRS accounts + 1 page-store account\n");
    printf("  in flight: uncommitted balance update, dirty page on disk\n");
    printf("  ... crash (no checkpoint, no clean shutdown) ...\n\n");
    // `db` is destroyed here, with `loser` never finished.
  }

  printf("Run 2: reopen, re-create the catalog, recover.\n");
  bool ok = false;
  {
    std::unique_ptr<Database> db = OpenDb();
    Table* accounts = *db->CreateTable(AccountsSchema());
    Status s = db->Recover();
    if (!s.ok()) {
      fprintf(stderr, "recover: %s\n", s.ToString().c_str());
      return 1;
    }

    int recovered = 0;
    auto txn = db->Begin();
    for (int64_t id = 1; id <= 20; ++id) {
      std::string row;
      if (db->SelectByKey(txn.get(), accounts,
                          accounts->pk_encoder().KeyForInts({id}), &row)
              .ok()) {
        ++recovered;
      }
    }
    std::string row;
    s = db->SelectByKey(txn.get(), accounts,
                        accounts->pk_encoder().KeyForInts({777}), &row);
    Status c = db->Commit(txn.get());
    (void)c;
    if (!s.ok()) {
      fprintf(stderr, "page-store account lost: %s\n", s.ToString().c_str());
      return 1;
    }
    RecordView v(&accounts->schema(), Slice(row));

    printf("  IMRS accounts recovered : %d / 20 (redo-only sysimrslogs "
           "replay)\n",
           recovered);
    printf("  account 777 balance     : %.2f (uncommitted 999999 undone by "
           "syslogs undo pass)\n",
           v.GetDouble(2));
    printf("  IMRS residency restored : %lld rows in the RID-map\n",
           static_cast<long long>(db->rid_map()->Size()));

    ok = recovered == 20 && v.GetDouble(2) == 7.0;
    printf("\n%s\n", ok ? "RECOVERY OK" : "RECOVERY FAILED");
  }
  std::filesystem::remove_all(kDir);
  return ok ? 0 : 1;
}
