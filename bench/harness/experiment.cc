#include "harness/experiment.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "obs/metrics_io.h"

namespace btrim {
namespace bench {

double RunOutcome::HitRate() const {
  const obs::MetricsRegistry& m = *db->metrics_registry();
  const int64_t imrs_ops = m.Sum("engine.imrs_ops");
  const int64_t total = imrs_ops + m.Sum("engine.page_ops");
  return total == 0 ? 0.0
                    : static_cast<double>(imrs_ops) /
                          static_cast<double>(total);
}

tpcc::Scale DefaultScale() {
  tpcc::Scale scale;
  scale.warehouses = 2;
  scale.districts_per_warehouse = 10;
  scale.customers_per_district = 300;
  scale.items = 1000;
  scale.orders_per_district = 300;
  return scale;
}

const std::vector<std::string>& TableNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "warehouse", "district",   "customer", "history", "new_orders",
      "orders",    "order_line", "item",     "stock"};
  return *names;
}

RunOutcome RunTpcc(const RunConfig& config) {
  RunOutcome outcome;

  DatabaseOptions options;
  options.buffer_cache_frames = config.buffer_cache_frames;
  options.imrs_cache_bytes = config.imrs_cache_bytes;
  options.lock_timeout_ms = 50;
  options.background_interval_us = 300;
  options.ilm.ilm_enabled = config.ilm_enabled;
  options.ilm.steady_cache_pct = config.steady_cache_pct;
  options.ilm.pack_cycle_pct = config.pack_cycle_pct;
  options.ilm.queue_mode = config.queue_mode;
  options.ilm.apportion_mode = config.apportion_mode;
  options.ilm.tuning_window_txns = config.tuning_window_txns;
  options.ilm.select_caching = config.select_caching;

  Result<std::unique_ptr<Database>> opened = Database::Open(options);
  if (!opened.ok()) {
    fprintf(stderr, "FATAL: open failed: %s\n",
            opened.status().ToString().c_str());
    exit(1);
  }
  outcome.db = std::move(*opened);
  Database* db = outcome.db.get();

  Result<tpcc::Tables> tables = tpcc::CreateTables(db, config.scale);
  if (!tables.ok()) {
    fprintf(stderr, "FATAL: tables: %s\n", tables.status().ToString().c_str());
    exit(1);
  }
  outcome.tables = *tables;

  Status load = tpcc::LoadDatabase(db, outcome.tables, config.scale,
                                   config.seed);
  if (!load.ok()) {
    fprintf(stderr, "FATAL: load: %s\n", load.ToString().c_str());
    exit(1);
  }

  if (config.page_store_only) {
    // The paper's reference run: everything stays on the page store
    // (fully cached in the buffer cache).
    db->ilm()->SetForcePageStore(true);
  }

  outcome.ctx = std::make_unique<tpcc::TpccContext>();
  outcome.ctx->db = db;
  outcome.ctx->tables = outcome.tables;
  outcome.ctx->scale = config.scale;
  outcome.ctx->next_history_id =
      static_cast<int64_t>(config.scale.warehouses) *
          config.scale.districts_per_warehouse *
          config.scale.customers_per_district +
      1;

  db->StartBackground();

  WallTimer timer;
  std::mutex sample_mu;
  tpcc::DriverOptions dopt;
  dopt.workers = config.workers;
  dopt.total_txns = config.total_txns;
  dopt.seed = config.seed;
  dopt.window_txns = config.window_txns;
  dopt.window_observer = [&](int64_t committed) {
    // Mirror every window into the unified time-series sampler so shape
    // checks (tools/check_shapes.py) read the same axis as the figures.
    db->metrics_sampler()->SampleNow(committed);
    WindowSample sample;
    sample.txns = committed;
    sample.wall_seconds = timer.ElapsedSeconds();
    const obs::MetricsRegistry& m = *db->metrics_registry();
    sample.imrs_bytes = m.Sum("imrs_cache.in_use_bytes");
    sample.imrs_ops = m.Sum("engine.imrs_ops");
    sample.page_ops = m.Sum("engine.page_ops");
    sample.rows_packed = m.Sum("pack.rows_packed");
    sample.rows_skipped_hot = m.Sum("pack.rows_skipped_hot");
    sample.bytes_packed = m.Sum("pack.bytes_packed");
    for (Table* table : db->Tables()) {
      sample.per_table_imrs_bytes.push_back(
          table->partition(0).ilm->metrics.imrs_bytes.Load());
    }
    std::lock_guard<std::mutex> guard(sample_mu);
    outcome.samples.push_back(std::move(sample));
  };

  tpcc::TpccDriver driver(outcome.ctx.get(), dopt);
  Status reg = driver.RegisterMetrics(db->metrics_registry());
  if (!reg.ok()) {
    fprintf(stderr, "FATAL: driver metrics: %s\n", reg.ToString().c_str());
    exit(1);
  }
  outcome.driver = driver.Run();
  db->StopBackground();
  // The driver dies with this scope while outcome.db lives on: retire its
  // sources now; final values stay exported as retained samples.
  driver.UnregisterMetrics(db->metrics_registry());
  outcome.tpm = outcome.driver.Tpm();

  for (Table* table : db->Tables()) {
    PartitionState* state = table->partition(0).ilm;
    MetricsSnapshot snap = state->metrics.Snapshot();
    TableReport report;
    report.name = table->name();
    report.imrs_bytes = snap.imrs_bytes;
    report.imrs_rows = snap.imrs_rows;
    report.reuse_ops = snap.ReuseOps();
    report.reuse_select = snap.reuse_select;
    report.reuse_update = snap.reuse_update;
    report.reuse_delete = snap.reuse_delete;
    report.new_rows = snap.NewRows();
    report.inserts = snap.inserts_imrs;
    report.migrations = snap.migrations;
    report.cachings = snap.cachings;
    report.page_ops = snap.page_ops;
    report.rows_packed = snap.rows_packed;
    report.rows_skipped_hot = snap.rows_skipped_hot;
    report.bytes_packed = snap.bytes_packed;
    report.imrs_enabled = state->imrs_enabled.load();
    outcome.table_reports.push_back(std::move(report));
  }

  // BTRIM_METRICS_OUT=<prefix> dumps this run's metrics document to
  // <prefix><label>.json — every figure bench gets JSON export without
  // per-bench flag plumbing (one file per RunTpcc call, keyed by label).
  const char* metrics_prefix = getenv("BTRIM_METRICS_OUT");
  if (metrics_prefix != nullptr && metrics_prefix[0] != '\0') {
    db->metrics_sampler()->SampleNow(outcome.driver.committed);
    std::vector<obs::MetaEntry> meta = {
        {"bench", "tpcc_harness", false},
        {"label", config.label, false},
        {"ilm", config.ilm_enabled ? "true" : "false", true},
        {"page_store_only", config.page_store_only ? "true" : "false", true},
        {"steady_pct", std::to_string(config.steady_cache_pct), true},
        {"workers", std::to_string(config.workers), true},
        {"total_txns", std::to_string(config.total_txns), true},
        {"window_txns", std::to_string(config.window_txns), true},
        {"seed", std::to_string(config.seed), true},
        {"committed", std::to_string(outcome.driver.committed), true},
        {"tpm", std::to_string(outcome.tpm), true},
    };
    const std::string path =
        std::string(metrics_prefix) + config.label + ".json";
    Status ws = obs::WriteMetricsFile(path, meta, *db->metrics_registry(),
                                      db->metrics_sampler());
    if (!ws.ok()) {
      fprintf(stderr, "BTRIM_METRICS_OUT: %s\n", ws.ToString().c_str());
    } else {
      fprintf(stderr, "metrics written to %s\n", path.c_str());
    }
  }
  return outcome;
}

void PrintHeader(const std::string& title, const std::string& description) {
  printf("==============================================================\n");
  printf("%s\n", title.c_str());
  printf("%s\n", description.c_str());
  printf("==============================================================\n");
}

void PrintSeries(const std::string& csv_tag,
                 const std::vector<std::string>& columns,
                 const std::vector<std::vector<double>>& rows) {
  // Aligned ASCII table.
  for (const std::string& col : columns) {
    printf("%16s", col.c_str());
  }
  printf("\n");
  for (const auto& row : rows) {
    for (double v : row) {
      printf("%16.3f", v);
    }
    printf("\n");
  }
  // CSV block for plotting.
  printf("\n# CSV %s\n# ", csv_tag.c_str());
  for (size_t i = 0; i < columns.size(); ++i) {
    printf("%s%s", columns[i].c_str(), i + 1 < columns.size() ? "," : "\n");
  }
  for (const auto& row : rows) {
    printf("# ");
    for (size_t i = 0; i < row.size(); ++i) {
      printf("%.4f%s", row[i], i + 1 < row.size() ? "," : "\n");
    }
  }
  printf("\n");
}

double ToMiB(int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace bench
}  // namespace btrim
