// Adaptive tuning: the auto IMRS partition tuner (paper Sec. V) reacting to
// a workload without any user input.
//
// Two tables share one IMRS cache:
//   * `sessions`  — small, point-updated constantly (hot; like warehouse)
//   * `audit_log` — append-only, never re-read (cold; like history)
//
// Under memory pressure the tuner notices that audit_log's rows are never
// re-used and disables IMRS use for that partition; sessions stays
// IMRS-resident. When we later start *reading* the audit log heavily with
// page contention, the tuner re-enables it.
//
//   ./build/examples/adaptive_tuning

#include <cstdio>

#include "engine/database.h"

using namespace btrim;

namespace {

void PrintState(Database* db, Table* sessions, Table* audit) {
  PartitionState* s = sessions->partition(0).ilm;
  PartitionState* a = audit->partition(0).ilm;
  printf("  sessions : imrs_enabled=%-5s rows=%-6lld reuse_ops=%lld\n",
         s->imrs_enabled.load() ? "yes" : "no",
         static_cast<long long>(s->metrics.imrs_rows.Load()),
         static_cast<long long>(s->metrics.Snapshot().ReuseOps()));
  printf("  audit_log: imrs_enabled=%-5s rows=%-6lld reuse_ops=%lld "
         "(cache %.0f%% full)\n",
         a->imrs_enabled.load() ? "yes" : "no",
         static_cast<long long>(a->metrics.imrs_rows.Load()),
         static_cast<long long>(a->metrics.Snapshot().ReuseOps()),
         100.0 * db->imrs_allocator()->Utilization());
}

}  // namespace

int main() {
  DatabaseOptions options;
  options.buffer_cache_frames = 2048;
  options.imrs_cache_bytes = 512 * 1024;
  options.ilm.tuning_window_txns = 200;   // quick demo windows
  options.ilm.hysteresis_windows = 2;
  options.ilm.min_new_rows_for_disable = 20;
  std::unique_ptr<Database> db = std::move(*Database::Open(options));

  TableOptions sopt;
  sopt.name = "sessions";
  sopt.schema = Schema({Column::Int64("user_id"), Column::Int64("hits")});
  sopt.primary_key = {0};
  Table* sessions = *db->CreateTable(sopt);

  TableOptions aopt;
  aopt.name = "audit_log";
  aopt.schema = Schema({Column::Int64("seq"), Column::String("event", 80)});
  aopt.primary_key = {0};
  Table* audit = *db->CreateTable(aopt);

  // Seed a handful of hot session rows.
  for (int64_t u = 0; u < 32; ++u) {
    auto txn = db->Begin();
    RecordBuilder b(&sessions->schema());
    b.AddInt64(u).AddInt64(0);
    Status s = db->Insert(txn.get(), sessions, b.Finish());
    if (s.ok()) s = db->Commit(txn.get());
    if (!s.ok()) return 1;
  }

  printf("Phase 1: steady traffic — every request bumps a session row and\n"
         "appends an audit record that nobody reads.\n");
  int64_t seq = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 60; ++i) {
      auto txn = db->Begin();
      Status s = db->Update(txn.get(), sessions,
                            sessions->pk_encoder().KeyForInts({i % 32}),
                            [&](RowEditor& e) {
                              e.SetInt64(1, e.GetInt(1) + 1);
                            });
      if (s.ok()) {
        RecordBuilder b(&audit->schema());
        const int64_t this_seq = seq++;
        b.AddInt64(this_seq)
            .AddString(std::string(64, static_cast<char>('a' + this_seq % 26)));
        s = db->Insert(txn.get(), audit, b.Finish());
      }
      if (s.ok()) {
        s = db->Commit(txn.get());
      } else {
        Status a = db->Abort(txn.get());
        (void)a;
      }
    }
    db->RunGcOnce();
    db->RunIlmTickOnce();
    if (!audit->partition(0).ilm->imrs_enabled.load()) {
      printf("\n>>> tuning window %d: audit_log disabled for IMRS use "
             "(low re-use, big footprint — Sec. V.C)\n\n",
             round);
      break;
    }
  }
  PrintState(db.get(), sessions, audit);

  if (audit->partition(0).ilm->imrs_enabled.load()) {
    printf("tuner did not disable audit_log (unexpected at this scale)\n");
    return 1;
  }

  printf("\nPhase 2: an analytics job starts hammering the audit log with\n"
         "point reads — page-store contention argues for re-enablement\n"
         "(Sec. V.D).\n");
  // Simulate observed page-store contention in the monitor (a multi-reader
  // latch storm; injected directly so the demo is deterministic).
  for (int round = 0; round < 20; ++round) {
    audit->partition(0).ilm->metrics.page_contention.Add(200);
    for (int i = 0; i < 210; ++i) {
      auto txn = db->Begin();
      std::string row;
      Status s = db->SelectByKey(
          txn.get(), audit,
          audit->pk_encoder().KeyForInts({(seq - 1 + i) % seq}), &row);
      (void)s;
      Status c = db->Commit(txn.get());
      (void)c;
    }
    db->RunIlmTickOnce();
    if (audit->partition(0).ilm->imrs_enabled.load()) {
      printf("\n>>> tuning window %d: audit_log re-enabled for IMRS use "
             "(contention on the page store)\n\n",
             round);
      break;
    }
  }
  PrintState(db.get(), sessions, audit);
  return audit->partition(0).ilm->imrs_enabled.load() ? 0 : 1;
}
