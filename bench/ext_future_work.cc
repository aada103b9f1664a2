// Extension experiments for the paper's Sec. X future-work items:
//
//  (1) commit latency under ILM — the paper states "we do not anticipate
//      any increase in transaction commit-latency. However, this has not
//      been specifically measured, and is something that can be
//      investigated in future work" (Sec. VIII). We measure it.
//  (2) pinned fully in-memory tables + pre-warmed IMRS cache — "easy-to-use
//      user configurations ... that a small table be fully memory-resident,
//      overriding ILM rules ... fully in-memory tables and pre-warmed IMRS
//      caches".

#include <cstdio>

#include "harness/experiment.h"

using namespace btrim;
using namespace btrim::bench;

int main() {
  PrintHeader("Extension — Sec. X future work",
              "commit-latency under ILM; pinned tables; pre-warmed IMRS.");

  // --- (1) commit latency, ILM_ON vs ILM_OFF vs page-only -------------------
  printf("(1) end-to-end latency of committed transactions (microseconds)\n");
  printf("%-22s %10s %10s %10s %10s\n", "setup", "mean", "p50", "p95",
         "p99");
  struct Row {
    const char* name;
    tpcc::DriverStats stats;
  };
  std::vector<Row> rows;
  {
    RunConfig page_only;
    page_only.label = "page-store baseline";
    page_only.scale = DefaultScale();
    page_only.page_store_only = true;
    page_only.imrs_cache_bytes = 256ull << 20;
    rows.push_back({"page-store baseline", RunTpcc(page_only).driver});
  }
  {
    RunConfig off;
    off.label = "ILM_OFF";
    off.scale = DefaultScale();
    off.ilm_enabled = false;
    off.imrs_cache_bytes = 256ull << 20;
    rows.push_back({"ILM_OFF", RunTpcc(off).driver});
  }
  {
    RunConfig on;
    on.label = "ILM_ON";
    on.scale = DefaultScale();
    rows.push_back({"ILM_ON (pack active)", RunTpcc(on).driver});
  }
  for (const Row& r : rows) {
    printf("%-22s %10.1f %10lld %10lld %10lld\n", r.name,
           r.stats.latency_mean_us,
           static_cast<long long>(r.stats.latency_p50_us),
           static_cast<long long>(r.stats.latency_p95_us),
           static_cast<long long>(r.stats.latency_p99_us));
  }
  printf("# CSV ext_latency\n# setup,mean_us,p50_us,p95_us,p99_us\n");
  for (const Row& r : rows) {
    printf("# %s,%.1f,%lld,%lld,%lld\n", r.name, r.stats.latency_mean_us,
           static_cast<long long>(r.stats.latency_p50_us),
           static_cast<long long>(r.stats.latency_p95_us),
           static_cast<long long>(r.stats.latency_p99_us));
  }
  printf("expected: ILM_ON latency comparable to ILM_OFF (pack is off the "
         "commit path); both far below the page-store baseline.\n\n");

  // --- (2) pinning + pre-warm ----------------------------------------------
  printf("(2) pinned table + pre-warmed IMRS\n");
  DatabaseOptions options;
  options.buffer_cache_frames = 2048;
  options.imrs_cache_bytes = 256 * 1024;
  options.ilm.pack_cycle_pct = 0.20;
  std::unique_ptr<Database> db = std::move(*Database::Open(options));

  TableOptions ropt;
  ropt.name = "rates";  // small reference table every txn reads
  ropt.schema = Schema({Column::Int64("k"), Column::Double("rate")});
  ropt.primary_key = {0};
  ropt.pin_in_imrs = true;
  Table* rates = *db->CreateTable(ropt);

  TableOptions lopt;
  lopt.name = "ledger";  // bulk insert-only table
  lopt.schema = Schema({Column::Int64("id"), Column::String("e", 48)});
  lopt.primary_key = {0};
  Table* ledger = *db->CreateTable(lopt);

  // Load the pinned table cold, then pre-warm it.
  db->ilm()->SetForcePageStore(true);
  for (int64_t k = 0; k < 64; ++k) {
    auto txn = db->Begin();
    RecordBuilder b(&rates->schema());
    b.AddInt64(k).AddDouble(1.0 + 0.01 * static_cast<double>(k));
    Status s = db->Insert(txn.get(), rates, b.Finish());
    if (s.ok()) s = db->Commit(txn.get());
  }
  db->ilm()->SetForcePageStore(false);
  Result<int64_t> warmed = db->PrewarmTable(rates);
  printf("  pre-warm brought %lld/64 rates rows into the IMRS before any "
         "access\n",
         warmed.ok() ? static_cast<long long>(*warmed) : -1LL);

  // Bulk churn on the ledger forces continuous packing; the pinned table
  // must keep all its rows resident throughout.
  for (int64_t i = 0; i < 4000; ++i) {
    auto txn = db->Begin();
    RecordBuilder b(&ledger->schema());
    b.AddInt64(i).AddString(std::string(40, 'l'));
    Status s = db->Insert(txn.get(), ledger, b.Finish());
    if (s.ok()) s = db->Commit(txn.get());
    if (i % 100 == 0) {
      db->RunGcOnce();
      db->RunIlmTickOnce();
    }
  }
  db->RunGcOnce();
  db->RunIlmTickOnce();

  printf("  churn packed %lld rows total; pinned table lost %lld rows "
         "(resident %lld/64), utilization %.0f%%\n",
         static_cast<long long>(
             db->metrics_registry()->Sum("pack.rows_packed")),
         static_cast<long long>(
             rates->partition(0).ilm->metrics.rows_packed.Load()),
         static_cast<long long>(
             rates->partition(0).ilm->metrics.imrs_rows.Load()),
         100.0 * db->imrs_allocator()->Utilization());
  printf("expected: pack churns the ledger only; the pinned table stays "
         "fully resident (64/64, 0 packed).\n");
  return 0;
}
