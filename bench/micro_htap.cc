// micro_htap — CH-benCHmark-style HTAP microbenchmark: analytical scans
// over the columnar cold store running concurrently with TPC-C OLTP.
//
// One run builds a mixed-residency TPC-C database: bulk load to the page
// store, a warm-up OLTP phase that pulls rows through the IMRS, then a
// pack drain so the cold tail lands in compressed columnar segments
// (DatabaseOptions::cold_columnar). It then measures four things:
//
//   1. compression — cold.bytes_packed_raw vs cold.bytes_packed_compressed
//      over everything Pack relocated;
//   2. projection pushdown — Database::ScanTable over order_line with only
//      ol_amount projected must scan strictly fewer cold bytes than the
//      same scan decoding every column;
//   3. analytics answers — three aggregates (sum(ol_amount), sum of
//      customer balances, total stock quantity) whose projected scans are
//      the CH-benCHmark-style query side;
//   4. OLTP interference — a TPC-C driver phase run alone, then the same
//      phase with a scanner thread continuously re-running the aggregates;
//      the throughput dip is the HTAP tax.
//
// Output: one JSON document (stdout and/or --out FILE); `--metrics-out`
// writes the unified metrics export including the sampler series, with
// meta.htap_oltp_alone_first_seq / meta.htap_mixed_first_seq marking which
// sampler windows belong to which phase (tools/check_shapes.py htap).
// `--smoke` shrinks the run for CI; tools/check_regression.py check_htap
// (--htap-current) gates the --out JSON: cold columnar data exists and
// compresses, projected scans read fewer cold bytes, and OLTP keeps a
// bounded share of its throughput under concurrent scans.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "obs/metrics_io.h"
#include "tpcc/driver.h"
#include "tpcc/loader.h"

namespace btrim {
namespace {

struct RunParams {
  std::string dir;          // empty = in-memory engine
  int warehouses = 2;
  int64_t warmup_txns = 6000;   // pulls rows through the IMRS before packing
  int64_t oltp_txns = 16000;    // per measured phase (alone, then mixed)
  int workers = 4;
  int64_t window_txns = 2000;   // sampler window (committed transactions)
};

struct ScanResult {
  const char* name = "";
  double sum = 0.0;
  double scan_s = 0.0;
  HtapScanStats stats;
};

struct OltpResult {
  double tpm = 0.0;
  int64_t committed = 0;
  int64_t system_aborts = 0;
  int64_t p95_us = 0;
  int64_t scans_completed = 0;  // mixed phase only
  int64_t scan_aborts = 0;      // lock-timeout suite retries, mixed only
};

DatabaseOptions MakeOptions(const RunParams& p) {
  DatabaseOptions options;
  options.in_memory = p.dir.empty();
  options.data_dir = p.dir;
  options.buffer_cache_frames = 512;
  options.imrs_cache_bytes = 64u << 20;
  options.lock_timeout_ms = 200;
  options.cold_columnar = true;
  options.cold_segment_rows = 256;
  // Keep Pack aggressive so the warm-up traffic's cold tail actually lands
  // in columnar segments (same recipe as tests/cold_store_test.cc).
  options.ilm.steady_cache_pct = 0.01;
  options.ilm.aggressive_fraction = 0.05;
  options.ilm.pack_cycle_pct = 0.20;
  options.ilm.tuning_window_txns = 1ull << 40;
  return options;
}

int64_t ReadColdCounter(Database* db, const char* name) {
  obs::MetricSample sample;
  if (!db->metrics_registry()->Lookup(name, obs::MetricLabels{"cold", "", "", ""},
                                      &sample)) {
    return -1;
  }
  return sample.value;
}

/// Pack until rows_packed stalls: everything ILM considers cold is now in
/// columnar segments.
void DrainPack(Database* db) {
  db->RunGcOnce();
  int64_t last_rows = -1;
  int stalled = 0;
  for (int iter = 0; iter < 500 && stalled < 3; ++iter) {
    db->RunIlmTickOnce();
    const int64_t rows = db->metrics_registry()->Sum("pack.rows_packed");
    stalled = rows == last_rows ? stalled + 1 : 0;
    last_rows = rows;
  }
}

/// One projected aggregate: sums `column` (a Double or integer column) over
/// every live row of `table`. A scan racing OLTP writers can lose a lock
/// fight on a heap row; Busy/Aborted is a retryable outcome, not a failure.
Status RunAggregate(Database* db, Table* table, size_t column, bool is_double,
                    const char* name, ScanResult* out) {
  HtapScanOptions options;
  options.columns = {column};
  double sum = 0.0;
  WallTimer timer;
  auto txn = db->Begin();
  Status s = db->ScanTable(
      txn.get(), table, options,
      [&](const HtapRow& row) {
        sum += is_double ? row.Double(column)
                         : static_cast<double>(row.Int(column));
        return true;
      },
      &out->stats);
  if (s.ok()) s = db->Commit(txn.get());
  else { Status a = db->Abort(txn.get()); (void)a; }
  if (!s.ok()) return s;
  out->name = name;
  out->sum = sum;
  out->scan_s = static_cast<double>(timer.ElapsedMicros()) / 1e6;
  return Status::OK();
}

/// The CH-style query side: three aggregates over the largest tables.
Status RunQuerySuite(Database* db, tpcc::Tables* t,
                     std::vector<ScanResult>* out) {
  out->clear();
  out->resize(3);
  BTRIM_RETURN_IF_ERROR(RunAggregate(db, t->order_line, tpcc::ol::kAmount,
                                     true, "sum_ol_amount", &(*out)[0]));
  BTRIM_RETURN_IF_ERROR(RunAggregate(db, t->customer, tpcc::cust::kBalance,
                                     true, "sum_c_balance", &(*out)[1]));
  return RunAggregate(db, t->stock, tpcc::stk::kQuantity, false,
                      "sum_s_quantity", &(*out)[2]);
}

/// One OLTP phase: `driver_seed` keeps the alone and mixed phases on the
/// same transaction script. With `with_scans`, a scanner thread re-runs the
/// query suite continuously until the driver finishes.
bool RunOltpPhase(Database* db, tpcc::TpccContext* ctx, const RunParams& p,
                  uint64_t driver_seed, bool with_scans, OltpResult* out) {
  tpcc::DriverOptions dopt;
  dopt.workers = p.workers;
  dopt.total_txns = p.oltp_txns;
  dopt.seed = driver_seed;
  dopt.window_txns = p.window_txns;
  dopt.window_observer = [db](int64_t committed) {
    db->metrics_sampler()->SampleNow(committed);
  };
  tpcc::TpccDriver driver(ctx, dopt);
  Status rs = driver.RegisterMetrics(db->metrics_registry());
  if (!rs.ok()) {
    fprintf(stderr, "micro_htap: driver metrics: %s\n",
            rs.ToString().c_str());
    return false;
  }
  db->metrics_sampler()->SampleNow(0);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> scans{0};
  std::atomic<int64_t> scan_aborts{0};
  std::atomic<bool> scan_failed{false};
  std::thread scanner;
  if (with_scans) {
    scanner = std::thread([&] {
      std::vector<ScanResult> results;
      while (!stop.load(std::memory_order_acquire)) {
        Status s = RunQuerySuite(db, &ctx->tables, &results);
        if (s.ok()) {
          scans.fetch_add(1, std::memory_order_relaxed);
        } else if (s.IsBusy() || s.IsAborted()) {
          scan_aborts.fetch_add(1, std::memory_order_relaxed);
        } else {
          fprintf(stderr, "micro_htap: scanner: %s\n", s.ToString().c_str());
          scan_failed.store(true, std::memory_order_release);
          return;
        }
      }
    });
  }

  tpcc::DriverStats stats = driver.Run();
  stop.store(true, std::memory_order_release);
  if (scanner.joinable()) scanner.join();
  driver.UnregisterMetrics(db->metrics_registry());
  if (scan_failed.load()) return false;

  out->tpm = stats.Tpm();
  out->committed = stats.committed;
  out->system_aborts = stats.system_aborts;
  out->p95_us = stats.latency_p95_us;
  out->scans_completed = scans.load();
  out->scan_aborts = scan_aborts.load();
  return true;
}

std::string ScanJson(const ScanResult& r) {
  char buf[320];
  snprintf(buf, sizeof(buf),
           "{\"query\": \"%s\", \"sum\": %.2f, \"scan_s\": %.4f, "
           "\"rows_emitted\": %" PRId64 ", \"rows_from_cold\": %" PRId64
           ", \"rows_from_imrs\": %" PRId64 ", \"rows_from_heap\": %" PRId64
           ", \"bytes_scanned_cold\": %" PRId64 "}",
           r.name, r.sum, r.scan_s, r.stats.rows_emitted,
           r.stats.rows_from_cold, r.stats.rows_from_imrs,
           r.stats.rows_from_heap, r.stats.bytes_scanned_cold);
  return buf;
}

}  // namespace
}  // namespace btrim

int main(int argc, char** argv) {
  using namespace btrim;

  RunParams p;
  std::string out_path;
  std::string metrics_out_path;
  bool smoke = false;

  for (int i = 1; i < argc; ++i) {
    auto int_arg = [&](const char* flag, int64_t* value) {
      if (strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        *value = atoll(argv[++i]);
        return true;
      }
      return false;
    };
    auto str_arg = [&](const char* flag, std::string* value) {
      if (strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        *value = argv[++i];
        return true;
      }
      return false;
    };
    int64_t tmp;
    if (int_arg("--warehouses", &tmp)) {
      p.warehouses = static_cast<int>(tmp);
      continue;
    }
    if (int_arg("--warmup-txns", &p.warmup_txns)) continue;
    if (int_arg("--oltp-txns", &p.oltp_txns)) continue;
    if (int_arg("--workers", &tmp)) {
      p.workers = static_cast<int>(tmp);
      continue;
    }
    if (int_arg("--window-txns", &p.window_txns)) continue;
    if (str_arg("--dir", &p.dir)) continue;
    if (str_arg("--out", &out_path)) continue;
    if (str_arg("--metrics-out", &metrics_out_path)) continue;
    if (strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    fprintf(stderr,
            "usage: %s [--warehouses N] [--warmup-txns N] [--oltp-txns N] "
            "[--workers N] [--window-txns N] [--dir D] [--out FILE] "
            "[--metrics-out FILE] [--smoke]\n",
            argv[0]);
    return 2;
  }
  if (smoke) {
    p.warmup_txns = std::min<int64_t>(p.warmup_txns, 3000);
    p.oltp_txns = std::min<int64_t>(p.oltp_txns, 4000);
    p.window_txns = std::min<int64_t>(p.window_txns, 500);
  }
  const int hw_threads = std::max(1u, std::thread::hardware_concurrency());

  if (!p.dir.empty()) {
    std::filesystem::remove_all(p.dir);
    std::filesystem::create_directories(p.dir);
  }
  Result<std::unique_ptr<Database>> opened = Database::Open(MakeOptions(p));
  if (!opened.ok()) {
    fprintf(stderr, "micro_htap: open: %s\n",
            opened.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<Database> db = std::move(*opened);

  tpcc::Scale scale;
  scale.warehouses = p.warehouses;
  Result<tpcc::Tables> tables = tpcc::CreateTables(db.get(), scale);
  if (!tables.ok()) {
    fprintf(stderr, "micro_htap: create tables: %s\n",
            tables.status().ToString().c_str());
    return 2;
  }
  tpcc::TpccContext ctx;
  ctx.db = db.get();
  ctx.tables = *tables;
  ctx.scale = scale;

  fprintf(stderr, "micro_htap: loading %d warehouses...\n", p.warehouses);
  Status ls = tpcc::LoadDatabase(db.get(), ctx.tables, scale);
  if (!ls.ok()) {
    fprintf(stderr, "micro_htap: load: %s\n", ls.ToString().c_str());
    return 2;
  }

  // Warm-up: pull rows through the IMRS (inserts, migrations, cached
  // selects), then drain Pack so their cold tail lands columnar.
  fprintf(stderr, "micro_htap: warm-up (%" PRId64 " txns)...\n",
          p.warmup_txns);
  {
    tpcc::DriverOptions wopt;
    wopt.workers = p.workers;
    wopt.total_txns = p.warmup_txns;
    wopt.seed = 11;
    wopt.window_txns = 0;
    tpcc::TpccDriver warmup(&ctx, wopt);
    warmup.Run();
  }
  DrainPack(db.get());

  const int64_t cold_rows = db->cold()->rows();
  const int64_t cold_segments = ReadColdCounter(db.get(), "cold.segments");
  const int64_t raw_bytes = ReadColdCounter(db.get(), "cold.bytes_packed_raw");
  const int64_t compressed_bytes =
      ReadColdCounter(db.get(), "cold.bytes_packed_compressed");
  const double compression_ratio =
      compressed_bytes > 0
          ? static_cast<double>(raw_bytes) /
                static_cast<double>(compressed_bytes)
          : 0.0;
  fprintf(stderr,
          "cold: rows=%" PRId64 " segments=%" PRId64 " raw=%" PRId64
          "B compressed=%" PRId64 "B ratio=%.2f\n",
          cold_rows, cold_segments, raw_bytes, compressed_bytes,
          compression_ratio);

  // Projection pushdown on the quiesced database: the same order_line scan
  // with and without column projection.
  HtapScanStats full_stats;
  {
    auto txn = db->Begin();
    Status s = db->ScanTable(txn.get(), ctx.tables.order_line,
                             HtapScanOptions{},
                             [](const HtapRow&) { return true; },
                             &full_stats);
    if (s.ok()) s = db->Commit(txn.get());
    if (!s.ok()) {
      fprintf(stderr, "micro_htap: full scan: %s\n", s.ToString().c_str());
      return 2;
    }
  }
  std::vector<ScanResult> queries;
  Status qs = RunQuerySuite(db.get(), &ctx.tables, &queries);
  if (!qs.ok()) {
    fprintf(stderr, "micro_htap: query suite: %s\n", qs.ToString().c_str());
    return 2;
  }
  const int64_t projected_bytes = queries[0].stats.bytes_scanned_cold;
  fprintf(stderr,
          "scan: order_line full=%" PRId64 "B projected(ol_amount)=%" PRId64
          "B rows=%" PRId64 " (cold=%" PRId64 ")\n",
          full_stats.bytes_scanned_cold, projected_bytes,
          full_stats.rows_emitted, full_stats.rows_from_cold);

  // Measured phases: identical driver scripts, without and with the
  // concurrent scanner. Background pack/GC runs as in production.
  db->StartBackground();
  const int64_t alone_first_seq = db->metrics_sampler()->total_samples();
  OltpResult alone;
  fprintf(stderr, "micro_htap: OLTP alone (%" PRId64 " txns)...\n",
          p.oltp_txns);
  if (!RunOltpPhase(db.get(), &ctx, p, /*driver_seed=*/23,
                    /*with_scans=*/false, &alone)) {
    return 2;
  }
  const int64_t mixed_first_seq = db->metrics_sampler()->total_samples();
  OltpResult mixed;
  fprintf(stderr, "micro_htap: OLTP + concurrent scans...\n");
  if (!RunOltpPhase(db.get(), &ctx, p, /*driver_seed=*/23,
                    /*with_scans=*/true, &mixed)) {
    return 2;
  }
  db->StopBackground();

  const double dip_ratio = alone.tpm > 0 ? mixed.tpm / alone.tpm : 0.0;
  fprintf(stderr,
          "oltp: alone=%.0f tpm, mixed=%.0f tpm (ratio %.2f), %" PRId64
          " query-suite passes during mixed phase\n",
          alone.tpm, mixed.tpm, dip_ratio, mixed.scans_completed);

  const std::string metrics_json = db->DumpMetricsJson();
  const std::string series_json = db->metrics_sampler()->ToJson();
  if (!p.dir.empty()) {
    db.reset();
    std::filesystem::remove_all(p.dir);
  }

  char buf[1024];
  std::string json = "{\n  \"bench\": \"micro_htap\",\n";
  snprintf(buf, sizeof(buf),
           "  \"warehouses\": %d,\n  \"warmup_txns\": %" PRId64
           ",\n  \"oltp_txns\": %" PRId64 ",\n  \"workers\": %d,\n"
           "  \"hw_threads\": %d,\n",
           p.warehouses, p.warmup_txns, p.oltp_txns, p.workers, hw_threads);
  json += buf;
  snprintf(buf, sizeof(buf),
           "  \"cold\": {\"rows\": %" PRId64 ", \"segments\": %" PRId64
           ", \"bytes_packed_raw\": %" PRId64
           ", \"bytes_packed_compressed\": %" PRId64
           ", \"compression_ratio\": %.4f},\n",
           cold_rows, cold_segments, raw_bytes, compressed_bytes,
           compression_ratio);
  json += buf;
  snprintf(buf, sizeof(buf),
           "  \"projection\": {\"full_bytes_scanned_cold\": %" PRId64
           ", \"projected_bytes_scanned_cold\": %" PRId64
           ", \"rows_emitted\": %" PRId64 ", \"rows_from_cold\": %" PRId64
           "},\n",
           full_stats.bytes_scanned_cold, projected_bytes,
           full_stats.rows_emitted, full_stats.rows_from_cold);
  json += buf;
  json += "  \"queries\": [\n";
  for (size_t i = 0; i < queries.size(); ++i) {
    json += "    " + ScanJson(queries[i]) +
            (i + 1 < queries.size() ? ",\n" : "\n");
  }
  json += "  ],\n";
  snprintf(buf, sizeof(buf),
           "  \"oltp\": {\"alone_tpm\": %.1f, \"mixed_tpm\": %.1f, "
           "\"dip_ratio\": %.4f, \"alone_p95_us\": %" PRId64
           ", \"mixed_p95_us\": %" PRId64 ", \"alone_aborts\": %" PRId64
           ", \"mixed_aborts\": %" PRId64 ", \"scans_during_mixed\": %" PRId64
           ", \"scan_suite_aborts\": %" PRId64 "}\n",
           alone.tpm, mixed.tpm, dip_ratio, alone.p95_us, mixed.p95_us,
           alone.system_aborts, mixed.system_aborts, mixed.scans_completed,
           mixed.scan_aborts);
  json += buf;
  json += "}\n";

  if (!out_path.empty()) {
    FILE* f = fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
    fwrite(json.data(), 1, json.size(), f);
    fclose(f);
  } else {
    fwrite(json.data(), 1, json.size(), stdout);
  }

  if (!metrics_out_path.empty()) {
    snprintf(buf, sizeof(buf),
             "{\n  \"meta\": {\"bench\": \"micro_htap\", "
             "\"hw_threads\": %d, \"htap_oltp_alone_first_seq\": %" PRId64
             ", \"htap_mixed_first_seq\": %" PRId64 "},\n",
             hw_threads, alone_first_seq, mixed_first_seq);
    std::string doc = std::string(buf) + "  \"metrics\": " + metrics_json +
                      ",\n  \"series\": " + series_json + "\n}\n";
    Status ws = obs::WriteFileOrError(metrics_out_path, doc);
    if (!ws.ok()) {
      fprintf(stderr, "metrics-out: %s\n", ws.ToString().c_str());
      return 2;
    }
  }

  return 0;
}
