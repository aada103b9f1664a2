// micro_recovery — overlapped-checkpoint pause + parallel log-replay
// microbenchmark on the file-backed engine.
//
// One run builds a recovery-rich history in a scratch directory: a bulk
// load, an overlapped checkpoint taken while writer threads keep
// committing (the foreground stall is measured twice — from the
// checkpoint's own pause metrics and from the worst observed commit
// latency), post-checkpoint traffic so replay must rebase on top of the
// snapshot, then a simulated crash. The same log directory is then
// recovered once per requested worker count, timing Database::Recover()
// only (replay + parallel index rebuild), which is deterministic and
// repeatable over unchanged logs.
//
// Output: one JSON document (stdout and/or --out FILE) with the checkpoint
// pause/total/stall numbers and a row per recovery worker count.
// `--smoke` runs only {1, 4} workers, for CI. tools/check_regression.py
// (--recovery-current) gates this file's JSON:
//   (a) the begin-barrier pause is <= 10% of the full checkpoint duration
//       (the quiescent design this replaced stalled commits for the whole
//       duration, so the ratio is exactly "new pause / old pause"),
//   (b) every worker count recovers the same rows and commit clock, and
//   (c) 4-worker replay is >= 2x serial when the hardware has >= 4
//       threads (the same hw-scaled floor scheme as micro_index).
// `--metrics-out FILE` dumps the loader database's full metrics registry.

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

namespace btrim {
namespace {

struct CheckpointResult {
  int64_t pause_us = 0;        // begin-barrier stall (checkpoint metric)
  int64_t total_us = 0;        // whole checkpoint wall time (metric)
  int64_t max_commit_stall_us = 0;  // worst writer-observed commit latency
  int64_t stashed_rows = 0;
  int64_t snapshot_rows = 0;
};

struct RecoveryResult {
  int workers = 0;
  double recover_s = 0.0;
  int64_t imrs_rows = 0;    // rid_map entries after replay (deterministic)
  uint64_t clock_now = 0;   // restored commit clock (deterministic)
};

struct RunParams {
  std::string dir;
  int64_t rows = 60000;
  int64_t post_rows = 8000;  // post-checkpoint traffic replay must rebase
  int writers = 2;           // concurrent committers during the checkpoint
  std::vector<int> worker_counts = {1, 2, 4, 8};
};

DatabaseOptions MakeOptions(const RunParams& p, int pack_workers) {
  DatabaseOptions options;
  options.in_memory = false;
  options.data_dir = p.dir;
  options.buffer_cache_frames = 256;
  // Everything stays IMRS-resident: replay cost is then dominated by the
  // sharded log apply + index rebuild, which is what this bench measures.
  options.imrs_cache_bytes = 256u << 20;
  options.lock_timeout_ms = 2000;
  options.pack_workers = pack_workers;
  return options;
}

Table* MakeTable(Database* db) {
  TableOptions topt;
  topt.name = "kv";
  topt.schema = Schema({
      Column::Int64("id"),
      Column::Int64("group_id"),
      Column::String("value", 64),
  });
  topt.primary_key = {0};
  topt.secondary_indexes.push_back(IndexDef{"by_group", {1, 0}, false});
  return *db->CreateTable(topt);
}

bool LoadRows(Database* db, Table* table, int64_t first, int64_t count,
              const char* tag) {
  const std::string payload(48, 'x');
  constexpr int64_t kRowsPerTxn = 128;
  for (int64_t done = 0; done < count;) {
    auto txn = db->Begin();
    bool ok = true;
    for (int64_t i = 0; i < kRowsPerTxn && done + i < count; ++i) {
      const int64_t id = first + done + i;
      RecordBuilder b(&table->schema());
      b.AddInt64(id).AddInt64(id % 7).AddString(payload);
      if (!db->Insert(txn.get(), table, b.Finish()).ok()) {
        ok = false;
        break;
      }
    }
    if (!ok || !db->Commit(txn.get()).ok()) {
      Status a = db->Abort(txn.get());
      (void)a;
      fprintf(stderr, "micro_recovery: %s load failed at %" PRId64 "\n", tag,
              done);
      return false;
    }
    done += kRowsPerTxn;
  }
  return true;
}

int64_t ReadGauge(Database* db, const char* name) {
  obs::MetricSample sample;
  if (!db->metrics_registry()->Lookup(name, obs::MetricLabels{"checkpoint",
                                                              "", "", ""},
                                      &sample)) {
    return -1;
  }
  return sample.value;
}

/// Builds the history in p.dir (destroying whatever was there) and returns
/// the checkpoint measurements. On return the directory holds crashed
/// state: logs with a complete checkpoint pair plus post-checkpoint tail.
bool BuildHistory(const RunParams& p, CheckpointResult* ckpt,
                  std::string* metrics_json) {
  std::filesystem::remove_all(p.dir);
  std::filesystem::create_directories(p.dir);

  Result<std::unique_ptr<Database>> opened =
      Database::Open(MakeOptions(p, /*pack_workers=*/1));
  if (!opened.ok()) {
    fprintf(stderr, "micro_recovery: open: %s\n",
            opened.status().ToString().c_str());
    return false;
  }
  std::unique_ptr<Database> db = std::move(*opened);
  Table* table = MakeTable(db.get());
  if (!LoadRows(db.get(), table, 0, p.rows, "bulk")) return false;

  // Writers keep committing around the checkpoint; each tracks its worst
  // single commit latency. Under the old quiescent design this would be
  // >= the full checkpoint duration; under the overlapped design it must
  // collapse to roughly the begin barrier (plus ordinary group-commit
  // jitter).
  std::atomic<bool> stop{false};
  std::atomic<int64_t> max_stall_us{0};
  std::vector<std::thread> writers;
  writers.reserve(static_cast<size_t>(p.writers));
  for (int w = 0; w < p.writers; ++w) {
    writers.emplace_back([&, w] {
      const std::string payload(48, 'y');
      int64_t id = 10000000 + w * 1000000;
      while (!stop.load(std::memory_order_acquire)) {
        WallTimer t;
        auto txn = db->Begin();
        RecordBuilder b(&table->schema());
        b.AddInt64(id).AddInt64(id % 7).AddString(payload);
        Status s = db->Insert(txn.get(), table, b.Finish());
        if (s.ok()) s = db->Commit(txn.get());
        else { Status a = db->Abort(txn.get()); (void)a; }
        const int64_t us = t.ElapsedMicros();
        if (s.ok()) {
          int64_t seen = max_stall_us.load(std::memory_order_relaxed);
          while (us > seen &&
                 !max_stall_us.compare_exchange_weak(seen, us)) {
          }
          ++id;
        } else if (!s.IsBusy()) {
          fprintf(stderr, "micro_recovery: writer: %s\n",
                  s.ToString().c_str());
          return;
        }
      }
    });
  }

  Status cs = db->Checkpoint();
  stop.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  if (!cs.ok()) {
    fprintf(stderr, "micro_recovery: checkpoint: %s\n",
            cs.ToString().c_str());
    return false;
  }
  ckpt->pause_us = ReadGauge(db.get(), "checkpoint.last_pause_us");
  ckpt->total_us = ReadGauge(db.get(), "checkpoint.last_total_us");
  ckpt->stashed_rows = ReadGauge(db.get(), "checkpoint.stashed_rows");
  ckpt->snapshot_rows = ReadGauge(db.get(), "checkpoint.snapshot_rows");
  ckpt->max_commit_stall_us = max_stall_us.load();

  // Post-checkpoint tail: updates of snapshotted rows plus fresh inserts,
  // so replay exercises the rebase (snapshot first, then surviving groups).
  if (!LoadRows(db.get(), table, p.rows, p.post_rows, "post")) return false;
  const std::string upd(48, 'z');
  for (int64_t i = 0; i < std::min<int64_t>(p.rows, 2000); i += 2) {
    auto txn = db->Begin();
    Status s = db->Update(txn.get(), table,
                          table->pk_encoder().KeyForInts({i}),
                          [&](RowEditor& e) { e.SetString(2, upd); });
    if (s.ok()) s = db->Commit(txn.get());
    else { Status a = db->Abort(txn.get()); (void)a; }
    if (!s.ok()) {
      fprintf(stderr, "micro_recovery: update tail: %s\n",
              s.ToString().c_str());
      return false;
    }
  }
  *metrics_json = db->DumpMetricsJson();
  // Crash: destroy without checkpointing again; logs stay as evidence.
  db.reset();
  return true;
}

bool RunRecovery(const RunParams& p, int workers, RecoveryResult* out) {
  Result<std::unique_ptr<Database>> opened =
      Database::Open(MakeOptions(p, workers));
  if (!opened.ok()) {
    fprintf(stderr, "micro_recovery: reopen: %s\n",
            opened.status().ToString().c_str());
    return false;
  }
  std::unique_ptr<Database> db = std::move(*opened);
  MakeTable(db.get());

  WallTimer timer;
  Status s = db->Recover();
  const double wall_s = static_cast<double>(timer.ElapsedMicros()) / 1e6;
  if (!s.ok()) {
    fprintf(stderr, "micro_recovery: recover(%d): %s\n", workers,
            s.ToString().c_str());
    return false;
  }
  out->workers = workers;
  out->recover_s = wall_s;
  out->imrs_rows = db->rid_map()->Size();
  out->clock_now = db->Now();
  return true;
}

}  // namespace
}  // namespace btrim

int main(int argc, char** argv) {
  using namespace btrim;

  RunParams p;
  p.dir = (std::filesystem::temp_directory_path() / "btrim_micro_recovery")
              .string();
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
    if (int_arg("--rows", &p.rows)) continue;
    if (int_arg("--post-rows", &p.post_rows)) continue;
    if (int_arg("--writers", &tmp)) {
      p.writers = static_cast<int>(tmp);
      continue;
    }
    if (str_arg("--dir", &p.dir)) continue;
    if (str_arg("--out", &out_path)) continue;
    if (str_arg("--metrics-out", &metrics_out_path)) continue;
    if (strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    fprintf(stderr,
            "usage: %s [--rows N] [--post-rows N] [--writers N] [--dir D] "
            "[--out FILE] [--metrics-out FILE] [--smoke]\n",
            argv[0]);
    return 2;
  }
  if (smoke) p.worker_counts = {1, 4};

  const int hw_threads =
      std::max(1u, std::thread::hardware_concurrency());

  CheckpointResult ckpt;
  std::string metrics_json;
  if (!BuildHistory(p, &ckpt, &metrics_json)) return 2;
  fprintf(stderr,
          "checkpoint: pause=%" PRId64 "us total=%" PRId64
          "us max_commit_stall=%" PRId64 "us stashed=%" PRId64
          " snapshot_rows=%" PRId64 "\n",
          ckpt.pause_us, ckpt.total_us, ckpt.max_commit_stall_us,
          ckpt.stashed_rows, ckpt.snapshot_rows);

  std::vector<RecoveryResult> results;
  for (int workers : p.worker_counts) {
    RecoveryResult r;
    if (!RunRecovery(p, workers, &r)) return 2;
    fprintf(stderr,
            "recovery: workers=%d wall=%.3fs imrs_rows=%" PRId64 "\n",
            r.workers, r.recover_s, r.imrs_rows);
    results.push_back(r);
  }
  std::filesystem::remove_all(p.dir);

  std::string json = "{\n  \"bench\": \"micro_recovery\",\n";
  json += "  \"rows\": " + std::to_string(p.rows) +
          ",\n  \"post_rows\": " + std::to_string(p.post_rows) +
          ",\n  \"hw_threads\": " + std::to_string(hw_threads) +
          ",\n  \"checkpoint\": {\"pause_us\": " +
          std::to_string(ckpt.pause_us) +
          ", \"total_us\": " + std::to_string(ckpt.total_us) +
          ", \"max_commit_stall_us\": " +
          std::to_string(ckpt.max_commit_stall_us) +
          ", \"stashed_rows\": " + std::to_string(ckpt.stashed_rows) +
          ", \"snapshot_rows\": " + std::to_string(ckpt.snapshot_rows) +
          "},\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    char buf[192];
    snprintf(buf, sizeof(buf),
             "    {\"workers\": %d, \"recover_s\": %.4f, "
             "\"imrs_rows\": %" PRId64 ", \"clock_now\": %" PRIu64 "}",
             results[i].workers, results[i].recover_s, results[i].imrs_rows,
             results[i].clock_now);
    json += buf;
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
    std::string doc = "{\n  \"meta\": {\"bench\": \"micro_recovery\"},\n"
                      "  \"metrics\": " + metrics_json + "\n}\n";
    Status ws = obs::WriteFileOrError(metrics_out_path, doc);
    if (!ws.ok()) {
      fprintf(stderr, "metrics-out: %s\n", ws.ToString().c_str());
      return 2;
    }
  }

  return 0;
}
