// micro_commit — commit-path microbenchmark sweeping worker count x
// durability policy on the file backend.
//
// Each worker runs single-row insert transactions in a closed loop; every
// commit must reach durable storage per the configured policy, so the
// measurement isolates exactly what the group-commit subsystem changes:
// device syncs per commit and the latency of the durability wait.
//
// Output: one JSON document (stdout and/or --out FILE) with a row per
// (policy, workers) cell — throughput, fsync counts, batch shape, and
// commit-latency percentiles. `--smoke` runs a tiny budget for CI;
// tools/check_regression.py gates its --out JSON (group commit at >= 4
// workers must amortize its syncs, fsyncs/commit < 1). `--metrics-out FILE`
// also dumps each cell's full metrics registry in the unified export schema.

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

namespace btrim {
namespace {

struct CellResult {
  std::string policy;
  int workers = 0;
  int64_t commits = 0;
  double wall_s = 0.0;
  double tps = 0.0;
  int64_t syncs = 0;
  int64_t syncs_elided = 0;
  double fsyncs_per_commit = 0.0;
  double groups_per_batch = 0.0;
  double avg_batch_kib = 0.0;
  int64_t p50_us = 0;
  int64_t p95_us = 0;
  int64_t p99_us = 0;
  std::string metrics_json;  // full registry dump, taken before teardown
};

const char* PolicyName(DurabilityPolicy policy) {
  switch (policy) {
    case DurabilityPolicy::kNoSync:
      return "no_sync";
    case DurabilityPolicy::kSyncPerCommit:
      return "sync_per_commit";
    case DurabilityPolicy::kGroupCommit:
      return "group_commit";
  }
  return "?";
}

CellResult RunCell(const std::string& data_dir, DurabilityPolicy policy,
                   int workers, int64_t txns_per_worker) {
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);

  DatabaseOptions options;
  options.in_memory = false;
  options.data_dir = data_dir;
  options.buffer_cache_frames = 2048;
  options.imrs_cache_bytes = 256ull << 20;
  options.durability.policy = policy;
  options.ilm.ilm_enabled = false;  // keep pack/tuning out of the timing
  std::unique_ptr<Database> db = std::move(*Database::Open(options));

  TableOptions topt;
  topt.name = "kv";
  topt.schema = Schema({
      Column::Int64("id"),
      Column::Int64("worker"),
      Column::String("value", 64),
  });
  topt.primary_key = {0};
  Table* table = *db->CreateTable(topt);

  std::atomic<int64_t> committed{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const int64_t base = static_cast<int64_t>(t) * txns_per_worker;
      for (int64_t i = 0; i < txns_per_worker; ++i) {
        auto txn = db->Begin();
        RecordBuilder b(&table->schema());
        b.AddInt64(base + i).AddInt64(t).AddString("commit-path-payload");
        if (!db->Insert(txn.get(), table, b.Finish()).ok()) {
          Status a = db->Abort(txn.get());
          (void)a;
          continue;
        }
        if (db->Commit(txn.get()).ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  WallTimer timer;
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  const double wall_s =
      static_cast<double>(timer.ElapsedMicros()) / 1e6;

  const obs::MetricsRegistry& m = *db->metrics_registry();
  CellResult r;
  r.policy = PolicyName(policy);
  r.workers = workers;
  r.commits = committed.load();
  r.wall_s = wall_s;
  r.tps = wall_s > 0 ? static_cast<double>(r.commits) / wall_s : 0.0;
  r.syncs = m.Sum("wal.syncs");  // both logs
  r.syncs_elided = m.Sum("wal.syncs_elided");
  r.fsyncs_per_commit =
      r.commits > 0
          ? static_cast<double>(r.syncs) / static_cast<double>(r.commits)
          : 0.0;
  // The insert workload logs through sysimrslogs; that committer's shape is
  // the interesting one.
  const obs::MetricLabels imrs_log{"sysimrslogs", "", "", ""};
  const int64_t batches = m.Sum("commit.batches", imrs_log);
  if (batches > 0) {
    r.groups_per_batch = static_cast<double>(m.Sum("commit.groups", imrs_log)) /
                         static_cast<double>(batches);
    r.avg_batch_kib =
        static_cast<double>(m.Sum("commit.batch_bytes", imrs_log)) /
        static_cast<double>(batches) / 1024.0;
  }
  obs::MetricSample latency;
  m.Lookup("commit.latency_us", imrs_log, &latency);
  r.p50_us = latency.hist.PercentileUs(0.50);
  r.p95_us = latency.hist.PercentileUs(0.95);
  r.p99_us = latency.hist.PercentileUs(0.99);
  r.metrics_json = db->DumpMetricsJson();

  db.reset();
  std::filesystem::remove_all(data_dir);
  return r;
}

void AppendCellJson(std::string* out, const CellResult& r) {
  char buf[512];
  snprintf(buf, sizeof(buf),
           "    {\"policy\": \"%s\", \"workers\": %d, \"commits\": %" PRId64
           ", \"wall_s\": %.4f, \"tps\": %.0f, \"syncs\": %" PRId64
           ", \"syncs_elided\": %" PRId64
           ", \"fsyncs_per_commit\": %.4f, \"groups_per_batch\": %.2f, "
           "\"avg_batch_kib\": %.2f, \"p50_us\": %" PRId64
           ", \"p95_us\": %" PRId64 ", \"p99_us\": %" PRId64 "}",
           r.policy.c_str(), r.workers, r.commits, r.wall_s, r.tps, r.syncs,
           r.syncs_elided, r.fsyncs_per_commit, r.groups_per_batch,
           r.avg_batch_kib, r.p50_us, r.p95_us, r.p99_us);
  out->append(buf);
}

}  // namespace
}  // namespace btrim

int main(int argc, char** argv) {
  using namespace btrim;

  int64_t txns_per_worker = 2000;
  std::string out_path;
  std::string metrics_out_path;
  std::string data_dir = std::filesystem::temp_directory_path().string() +
                         "/btrim_micro_commit";
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
    if (int_arg("--txns-per-worker", &txns_per_worker)) continue;
    if (str_arg("--out", &out_path)) continue;
    if (str_arg("--metrics-out", &metrics_out_path)) continue;
    if (str_arg("--data-dir", &data_dir)) continue;
    if (strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    fprintf(stderr,
            "usage: %s [--txns-per-worker N] [--out FILE] "
            "[--metrics-out FILE] [--data-dir DIR] [--smoke]\n",
            argv[0]);
    return 2;
  }
  if (smoke) txns_per_worker = std::min<int64_t>(txns_per_worker, 300);

  const std::vector<DurabilityPolicy> policies = {
      DurabilityPolicy::kNoSync,
      DurabilityPolicy::kSyncPerCommit,
      DurabilityPolicy::kGroupCommit,
  };
  const std::vector<int> worker_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};

  std::vector<CellResult> results;
  for (DurabilityPolicy policy : policies) {
    for (int workers : worker_counts) {
      CellResult r = RunCell(data_dir, policy, workers, txns_per_worker);
      fprintf(stderr,
              "%-16s workers=%d commits=%" PRId64
              " tps=%.0f fsyncs/commit=%.3f groups/batch=%.2f "
              "p50/p95/p99=%" PRId64 "/%" PRId64 "/%" PRId64 " us\n",
              r.policy.c_str(), r.workers, r.commits, r.tps,
              r.fsyncs_per_commit, r.groups_per_batch, r.p50_us, r.p95_us,
              r.p99_us);
      results.push_back(r);
    }
  }

  std::string json = "{\n  \"bench\": \"micro_commit\",\n";
  json += "  \"txns_per_worker\": " + std::to_string(txns_per_worker) +
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
    std::string doc = "{\n  \"meta\": {\"bench\": \"micro_commit\", "
                      "\"txns_per_worker\": " +
                      std::to_string(txns_per_worker) + "},\n  \"cells\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      doc += "    {\"policy\": \"" + results[i].policy +
             "\", \"workers\": " + std::to_string(results[i].workers) +
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
