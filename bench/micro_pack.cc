// micro_pack — pack-pipeline microbenchmark sweeping worker count x
// IMRS size on the in-memory backend with simulated device latency.
//
// Each cell loads a hash-partitioned table until the IMRS sits well above
// the aggressive pack line, runs one GC sweep (which is what feeds the ILM
// queues), then drives RunIlmTickOnce in a closed loop until pack stops
// making progress. The page store uses a deliberately small buffer cache
// and a MemDevice with per-page latency, so pack cycles are I/O-sleep
// bound — exactly the regime where fanning partitions out across the
// shared ThreadPool must overlap the sleeps.
//
// Output: one JSON document (stdout and/or --out FILE) with a row per
// (workers, imrs_mb) cell — rows/bytes packed, cycle count, throughput.
// `--smoke` runs a single small size at 1 and 4 workers for CI;
// tools/check_regression.py gates its --out JSON (4-worker pack throughput
// must be >= 2x 1-worker).
// `--metrics-out FILE` also dumps each cell's full metrics registry.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "engine/database.h"
#include "obs/metrics_io.h"

namespace btrim {
namespace {

struct CellResult {
  int workers = 0;
  int64_t imrs_mb = 0;
  int64_t rows_loaded = 0;
  int64_t rows_packed = 0;
  int64_t bytes_packed = 0;
  int64_t cycles = 0;
  double wall_s = 0.0;
  double mb_per_s = 0.0;
  double bytes_per_cycle = 0.0;
  std::string metrics_json;  // full registry dump, taken before teardown
};

struct CellParams {
  int workers = 1;
  int64_t imrs_mb = 32;
  int64_t latency_us = 200;
  int64_t frames = 32;
  int64_t partitions = 8;
  double fill = 0.40;  // fraction of the IMRS cache to load before packing
};

CellResult RunCell(const CellParams& p) {
  DatabaseOptions options;
  options.in_memory = true;
  options.device_latency_micros = static_cast<uint32_t>(p.latency_us);
  options.buffer_cache_frames = static_cast<size_t>(p.frames);
  options.imrs_cache_bytes = static_cast<size_t>(p.imrs_mb) << 20;
  options.pack_workers = p.workers;
  options.lock_timeout_ms = 1000;
  // Pack must be active and unthrottled for the whole drain: a very low
  // steady line keeps the subsystem above it until the cache is nearly
  // empty, and the tiny aggressive fraction turns the timestamp filter off
  // (every loaded row is freshly written, so TSF would skip all of them).
  options.ilm.steady_cache_pct = 0.02;
  options.ilm.aggressive_fraction = 0.05;
  options.ilm.pack_cycle_pct = 0.20;
  options.ilm.pack_batch_rows = 64;
  // The auto-tuner has nothing to say about a drain-only workload; keep it
  // from flipping partitions mid-measurement.
  options.ilm.tuning_window_txns = 1ull << 40;
  std::unique_ptr<Database> db = std::move(*Database::Open(options));

  TableOptions topt;
  topt.name = "packee";
  topt.schema = Schema({
      Column::Int64("id"),
      Column::Int64("part"),
      Column::String("value", 128),
  });
  topt.primary_key = {0};
  topt.num_partitions = static_cast<int>(p.partitions);
  topt.partition_column = 1;
  Table* table = *db->CreateTable(topt);

  // ~Payload + row bookkeeping; only used to size the load, the measured
  // numbers come from the pack stats.
  constexpr int64_t kApproxRowBytes = 256;
  const int64_t target_bytes =
      static_cast<int64_t>(static_cast<double>(p.imrs_mb << 20) * p.fill);
  const int64_t rows_to_load =
      std::max<int64_t>(target_bytes / kApproxRowBytes, 1024);

  const std::string payload(100, 'x');
  int64_t loaded = 0;
  constexpr int64_t kRowsPerTxn = 128;
  while (loaded < rows_to_load) {
    auto txn = db->Begin();
    bool ok = true;
    for (int64_t i = 0; i < kRowsPerTxn && loaded + i < rows_to_load; ++i) {
      const int64_t id = loaded + i;
      RecordBuilder b(&table->schema());
      b.AddInt64(id).AddInt64(id % p.partitions).AddString(payload);
      if (!db->Insert(txn.get(), table, b.Finish()).ok()) {
        ok = false;
        break;
      }
    }
    if (!ok || !db->Commit(txn.get()).ok()) {
      Status a = db->Abort(txn.get());
      (void)a;
      fprintf(stderr, "micro_pack: load failed at row %" PRId64 "\n", loaded);
      break;
    }
    loaded += kRowsPerTxn;
  }
  loaded = std::min(loaded, rows_to_load);

  // Rows reach the ILM queues via the GC pass over freshly committed rows;
  // one un-budgeted sweep enqueues the whole load.
  db->RunGcOnce();

  // Timed drain: tick until pack stops advancing (below the steady line or
  // queues empty). The iteration cap is a hang guard, not a budget.
  const obs::MetricsRegistry& m = *db->metrics_registry();
  const int64_t rows_before = m.Sum("pack.rows_packed");
  const int64_t bytes_before = m.Sum("pack.bytes_packed");
  const int64_t cycles_before = m.Sum("pack.cycles");
  WallTimer timer;
  int64_t last_rows = -1;
  int stalled = 0;
  for (int iter = 0; iter < 10000 && stalled < 3; ++iter) {
    db->RunIlmTickOnce();
    const int64_t rows = m.Sum("pack.rows_packed");
    stalled = rows == last_rows ? stalled + 1 : 0;
    last_rows = rows;
  }
  const double wall_s = static_cast<double>(timer.ElapsedMicros()) / 1e6;

  CellResult r;
  r.workers = p.workers;
  r.imrs_mb = p.imrs_mb;
  r.rows_loaded = loaded;
  r.rows_packed = m.Sum("pack.rows_packed") - rows_before;
  r.bytes_packed = m.Sum("pack.bytes_packed") - bytes_before;
  r.cycles = m.Sum("pack.cycles") - cycles_before;
  r.wall_s = wall_s;
  r.mb_per_s = wall_s > 0
                   ? static_cast<double>(r.bytes_packed) / (1 << 20) / wall_s
                   : 0.0;
  r.bytes_per_cycle =
      r.cycles > 0
          ? static_cast<double>(r.bytes_packed) / static_cast<double>(r.cycles)
          : 0.0;
  r.metrics_json = db->DumpMetricsJson();
  return r;
}

void AppendCellJson(std::string* out, const CellResult& r) {
  char buf[384];
  snprintf(buf, sizeof(buf),
           "    {\"workers\": %d, \"imrs_mb\": %" PRId64
           ", \"rows_loaded\": %" PRId64 ", \"rows_packed\": %" PRId64
           ", \"bytes_packed\": %" PRId64 ", \"cycles\": %" PRId64
           ", \"wall_s\": %.4f, \"mb_per_s\": %.3f, "
           "\"bytes_per_cycle\": %.1f}",
           r.workers, r.imrs_mb, r.rows_loaded, r.rows_packed, r.bytes_packed,
           r.cycles, r.wall_s, r.mb_per_s, r.bytes_per_cycle);
  out->append(buf);
}

}  // namespace
}  // namespace btrim

int main(int argc, char** argv) {
  using namespace btrim;

  CellParams base;
  std::string out_path;
  std::string metrics_out_path;
  bool smoke = false;
  std::vector<int64_t> sizes_mb = {16, 64};
  std::vector<int> worker_counts = {1, 2, 4, 8};

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
    if (int_arg("--latency-us", &base.latency_us)) continue;
    if (int_arg("--frames", &base.frames)) continue;
    if (int_arg("--partitions", &base.partitions)) continue;
    if (int_arg("--imrs-mb", &tmp)) {
      sizes_mb = {tmp};
      continue;
    }
    if (str_arg("--out", &out_path)) continue;
    if (str_arg("--metrics-out", &metrics_out_path)) continue;
    if (strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    fprintf(stderr,
            "usage: %s [--latency-us N] [--frames N] [--partitions N] "
            "[--imrs-mb N] [--out FILE] [--metrics-out FILE] [--smoke]\n",
            argv[0]);
    return 2;
  }
  if (smoke) {
    sizes_mb = {16};
    worker_counts = {1, 4};
  }

  std::vector<CellResult> results;
  for (int64_t mb : sizes_mb) {
    for (int workers : worker_counts) {
      CellParams p = base;
      p.imrs_mb = mb;
      p.workers = workers;
      CellResult r = RunCell(p);
      fprintf(stderr,
              "imrs_mb=%-4" PRId64 " workers=%d rows_packed=%" PRId64
              "/%" PRId64 " cycles=%" PRId64
              " wall=%.2fs pack=%.2f MB/s bytes/cycle=%.0f\n",
              r.imrs_mb, r.workers, r.rows_packed, r.rows_loaded, r.cycles,
              r.wall_s, r.mb_per_s, r.bytes_per_cycle);
      results.push_back(r);
    }
  }

  std::string json = "{\n  \"bench\": \"micro_pack\",\n";
  json += "  \"latency_us\": " + std::to_string(base.latency_us) +
          ",\n  \"frames\": " + std::to_string(base.frames) +
          ",\n  \"partitions\": " + std::to_string(base.partitions) +
          ",\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    AppendCellJson(&json, results[i]);
    json += i + 1 < results.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

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
    // Per-cell registry dumps in the unified export schema (each cell has
    // its own Database, hence its own registry).
    std::string doc = "{\n  \"meta\": {\"bench\": \"micro_pack\"},\n"
                      "  \"cells\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      doc += "    {\"workers\": " + std::to_string(results[i].workers) +
             ", \"imrs_mb\": " + std::to_string(results[i].imrs_mb) +
             ", \"metrics\": " + results[i].metrics_json + "}";
      doc += i + 1 < results.size() ? ",\n" : "\n";
    }
    doc += "  ]\n}\n";
    Status ws = obs::WriteFileOrError(metrics_out_path, doc);
    if (!ws.ok()) {
      fprintf(stderr, "metrics-out: %s\n", ws.ToString().c_str());
      return 2;
    }
  }
  return 0;
}
