// Crash-point torture harness (see torture.h).
//
// The workload is a deterministic function of the seed: single-threaded,
// background threads never started (pack and GC run as explicit ticks), no
// wall-clock dependence. That makes the storage-operation trace of a
// fault-free run a complete enumeration of crash points, and makes any
// failure replayable from (seed, crash_op) alone.

#include "testing/torture.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "common/random.h"
#include "engine/database.h"

namespace btrim {
namespace testing {

namespace {

constexpr int64_t kKeySpace = 150;

/// Set BTRIM_TORTURE_VERBOSE=1 to narrate every transaction and the
/// post-recovery resolution (debugging a failing crash point).
bool Verbose() {
  static const bool on = std::getenv("BTRIM_TORTURE_VERBOSE") != nullptr;
  return on;
}

/// Old/attempted-new state of one key touched by one transaction
/// (nullopt = row absent).
struct KeyEffect {
  int64_t key = 0;
  std::optional<std::string> old_value;
  std::optional<std::string> new_value;
};

/// What the workload knows about durable state when the run ends.
struct Expectations {
  /// Committed live rows (acknowledged commits only). Keys absent from the
  /// map but present in `touched` must not exist after recovery.
  std::map<int64_t, std::string> committed;
  /// Every key any transaction ever touched.
  std::set<int64_t> touched;
  /// Effects of the at-most-one transaction whose commit errored at the
  /// crash point: recovery may surface either side, but atomically.
  std::optional<std::vector<KeyEffect>> indeterminate;
};

DatabaseOptions TortureDbOptions(const TortureConfig& config,
                                 std::shared_ptr<FaultPlan> plan) {
  DatabaseOptions options;
  options.in_memory = false;
  options.data_dir = config.dir;
  options.durability.policy = DurabilityPolicy::kSyncPerCommit;
  // Small caches force eviction write-backs and aggressive packing, so the
  // trace covers device writes, pack appends, and both logs — not just the
  // commit path.
  options.buffer_cache_frames = 32;
  options.imrs_cache_bytes = 64 << 10;
  options.ilm.steady_cache_pct = 0.01;
  options.ilm.aggressive_fraction = 0.05;
  options.ilm.pack_batch_rows = 8;
  options.pack_workers = config.pack_workers;
  options.lock_timeout_ms = 100;
  options.cold_columnar = config.cold_columnar;
  // Tiny segments so a torture run seals (and tears) real segment frames.
  options.cold_segment_rows = 16;
  options.fault_plan = std::move(plan);
  return options;
}

Result<Table*> CreateKvTable(Database* db) {
  TableOptions topt;
  topt.name = "kv";
  topt.schema = Schema({
      Column::Int64("id"),
      Column::Int64("group_id"),
      Column::String("value", 64),
  });
  topt.primary_key = {0};
  topt.secondary_indexes.push_back(IndexDef{"by_group", {1, 0}, false});
  return db->CreateTable(topt);
}

std::string EncodeRecord(Table* table, int64_t id, const std::string& value) {
  RecordBuilder b(&table->schema());
  b.AddInt64(id).AddInt64(id % 7).AddString(value);
  return b.Finish().ToString();
}

/// Point read under a fresh transaction; nullopt = NotFound.
Result<std::optional<std::string>> ReadKey(Database* db, Table* table,
                                           int64_t key) {
  auto txn = db->Begin();
  std::string row;
  Status s = db->SelectByKey(txn.get(), table,
                             Slice(table->pk_encoder().KeyForInts({key})),
                             &row);
  Status c = db->Commit(txn.get());
  (void)c;
  if (s.IsNotFound()) return std::optional<std::string>();
  if (!s.ok()) return s;
  RecordView v(&table->schema(), Slice(row));
  return std::optional<std::string>(v.GetString(2).ToString());
}

/// Runs the scripted workload against `db`, classifying every transaction
/// into `exp` / `stats`. Stops early once the plan (if any) crashes.
void RunWorkload(const TortureConfig& config, Database* db, Table* table,
                 const FaultPlan* plan, Expectations* exp,
                 TortureStats* stats) {
  Random rng(config.workload_seed);
  bool force_ps = false;

  // Overlapped mode: the previous checkpoint runs on this thread while the
  // writer loop below keeps committing. Joined before the next checkpoint
  // spawns and at workload end. The thread only touches
  // stats->checkpoints_completed, which the writer never reads or writes.
  std::thread ckpt_thread;
  auto join_checkpoint = [&ckpt_thread] {
    if (ckpt_thread.joinable()) ckpt_thread.join();
  };

  for (int i = 0; i < config.num_txns; ++i) {
    if (plan != nullptr && plan->crashed()) break;
    if (i % 7 == 0) {
      force_ps = !force_ps;
      db->ilm()->SetForcePageStore(force_ps);
    }

    const bool deliberate_abort = rng.PercentChance(10);
    const int nkeys = static_cast<int>(1 + rng.Uniform(3));

    auto txn = db->Begin();
    std::vector<KeyEffect> effects;
    bool op_failed = false;

    for (int k = 0; k < nkeys && !op_failed; ++k) {
      int64_t key = rng.UniformRange(0, kKeySpace - 1);
      // One effect per key per transaction keeps bookkeeping exact.
      bool dup = false;
      for (const KeyEffect& e : effects) dup |= e.key == key;
      if (dup) continue;

      KeyEffect effect;
      effect.key = key;
      auto it = exp->committed.find(key);
      if (it != exp->committed.end()) effect.old_value = it->second;
      const std::string value =
          "v" + std::to_string(i) + "-" + std::to_string(key);

      Status s;
      if (!effect.old_value.has_value()) {
        s = db->Insert(txn.get(), table, Slice(EncodeRecord(table, key, value)));
        effect.new_value = value;
      } else if (rng.PercentChance(70)) {
        s = db->Update(txn.get(), table,
                       Slice(table->pk_encoder().KeyForInts({key})),
                       [&](RowEditor& e) { e.SetString(2, value); });
        effect.new_value = value;
      } else {
        s = db->Delete(txn.get(), table,
                       Slice(table->pk_encoder().KeyForInts({key})));
        effect.new_value = std::nullopt;
      }
      if (!s.ok()) {
        // NoSpace, lock timeout, or post-crash IOError: abandon the
        // transaction. No commit record was written, so recovery rolls it
        // back — the old state is the only acceptable one.
        op_failed = true;
        break;
      }
      exp->touched.insert(key);
      effects.push_back(std::move(effect));
    }

    if (Verbose()) {
      std::string desc = "txn " + std::to_string(i) + ":";
      for (const KeyEffect& e : effects) {
        desc += " " + std::to_string(e.key) + "[" +
                (e.old_value ? *e.old_value : "-") + "->" +
                (e.new_value ? *e.new_value : "-") + "]";
      }
      std::fprintf(stderr, "%s%s\n", desc.c_str(),
                   op_failed ? " (op failed)"
                             : (deliberate_abort ? " (abort)" : ""));
    }
    if (op_failed || deliberate_abort || effects.empty()) {
      Status a = db->Abort(txn.get());
      (void)a;
      ++stats->txns_aborted;
    } else {
      Status c = db->Commit(txn.get());
      if (Verbose() && !c.ok()) {
        std::fprintf(stderr, "txn %d: commit error: %s\n", i,
                     c.ToString().c_str());
      }
      if (c.ok()) {
        for (const KeyEffect& e : effects) {
          if (e.new_value.has_value()) {
            exp->committed[e.key] = *e.new_value;
          } else {
            exp->committed.erase(e.key);
          }
        }
        ++stats->txns_acked;
      } else {
        // The commit was not acknowledged, but parts of it may have become
        // durable before the fault hit. Recovery must resolve the whole
        // transaction to one side; remember both.
        exp->indeterminate = std::move(effects);
        stats->txn_indeterminate = true;
        break;  // every later commit would fail the same way
      }
    }

    if (i % 16 == 15) {
      if (config.overlapped_checkpoints) {
        join_checkpoint();
        ckpt_thread = std::thread([db, stats] {
          Status s = db->Checkpoint();
          if (s.ok()) ++stats->checkpoints_completed;
        });
      } else {
        Status s = db->Checkpoint();
        if (s.ok()) ++stats->checkpoints_completed;
      }
    }
    // In overlapped mode these ticks race the checkpoint thread on purpose:
    // pack evictions and GC purges during the snapshot walk are what the
    // copy-on-write stash exists for.
    if (i % 10 == 9) {
      db->RunIlmTickOnce();
      db->RunGcOnce();
    }
  }
  join_checkpoint();
}

/// Reopens `config.dir` without fault injection, recovers, and checks the
/// recovered state against `exp`.
Status VerifyAfterRecovery(const TortureConfig& config, const Expectations& ex,
                           TortureStats* stats) {
  Expectations exp = ex;  // locally resolved (indeterminate folds in)
  Result<std::unique_ptr<Database>> reopened =
      Database::Open(TortureDbOptions(config, nullptr));
  if (!reopened.ok()) {
    return Status::Corruption("reopen failed: " +
                              reopened.status().ToString());
  }
  std::unique_ptr<Database> db = std::move(*reopened);
  Result<Table*> created = CreateKvTable(db.get());
  if (!created.ok()) return created.status();
  Table* table = *created;

  Status rs = db->Recover();
  if (!rs.ok()) {
    return Status::Corruption("recovery failed: " + rs.ToString());
  }
  Status vs = db->ValidateInvariants();
  if (!vs.ok()) {
    return Status::Corruption("post-recovery invariants: " + vs.ToString());
  }

  if (Verbose()) {
    for (size_t p = 0; p < table->num_partitions(); ++p) {
      Status hs = table->partition(p).heap->ScanAll([&](Rid rid,
                                                        Slice payload) {
        RecordView v(&table->schema(), payload);
        std::fprintf(stderr, "heap slot %u/%u.%u: key %lld (%s)\n",
                     rid.file_id, rid.page_no, rid.slot,
                     static_cast<long long>(v.GetInt64(0)),
                     db->rid_map()->Lookup(rid) != nullptr ? "masked"
                                                           : "visible");
        return true;
      });
      (void)hs;
    }
  }

  // Resolve the indeterminate transaction: all-old or all-new, atomically.
  if (exp.indeterminate.has_value()) {
    bool all_old = true;
    bool all_new = true;
    for (const KeyEffect& e : *exp.indeterminate) {
      Result<std::optional<std::string>> actual = ReadKey(db.get(), table,
                                                          e.key);
      if (!actual.ok()) return actual.status();
      all_old &= *actual == e.old_value;
      all_new &= *actual == e.new_value;
      if (Verbose()) {
        std::fprintf(stderr, "indeterminate key %lld: actual=%s\n",
                     static_cast<long long>(e.key),
                     actual->has_value() ? (*actual)->c_str() : "-");
      }
    }
    if (!all_old && !all_new) {
      return Status::Corruption(
          "indeterminate transaction recovered non-atomically (neither "
          "all-old nor all-new)");
    }
    if (!all_old) {
      for (const KeyEffect& e : *exp.indeterminate) {
        if (e.new_value.has_value()) {
          exp.committed[e.key] = *e.new_value;
        } else {
          exp.committed.erase(e.key);
        }
      }
    }
  }

  // Every acknowledged effect, exactly; every aborted / never-committed
  // key, absent.
  for (int64_t key : exp.touched) {
    Result<std::optional<std::string>> actual = ReadKey(db.get(), table, key);
    if (!actual.ok()) return actual.status();
    auto it = exp.committed.find(key);
    if (it == exp.committed.end()) {
      if (actual->has_value()) {
        return Status::Corruption("uncommitted row resurfaced: key " +
                                  std::to_string(key) + " = " + **actual);
      }
    } else if (!actual->has_value()) {
      return Status::Corruption("committed row lost: key " +
                                std::to_string(key));
    } else if (**actual != it->second) {
      return Status::Corruption("committed row has wrong value: key " +
                                std::to_string(key) + " = " + **actual +
                                ", want " + it->second);
    }
    ++stats->keys_verified;
  }

  // Full-scan cross-check: the surviving key set must equal the committed
  // key set (catches resurrections point reads cannot see).
  {
    auto txn = db->Begin();
    std::vector<ScanRow> rows;
    Status ss = db->ScanIndex(txn.get(), table, -1, Slice(), Slice(),
                              /*limit=*/1 << 20, &rows);
    Status c = db->Commit(txn.get());
    (void)c;
    if (!ss.ok()) return ss;
    std::set<int64_t> found;
    for (const ScanRow& row : rows) {
      RecordView v(&table->schema(), Slice(row.payload));
      found.insert(v.GetInt64(0));
    }
    stats->rows_recovered = static_cast<int64_t>(found.size());
    for (int64_t key : found) {
      if (exp.committed.find(key) == exp.committed.end()) {
        return Status::Corruption("scan found unexpected key " +
                                  std::to_string(key));
      }
    }
    for (const auto& [key, value] : exp.committed) {
      if (found.find(key) == found.end()) {
        return Status::Corruption("scan missed committed key " +
                                  std::to_string(key));
      }
    }
  }
  return Status::OK();
}

/// Wipes and re-creates the working directory.
Status ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create torture dir " + dir + ": " +
                           ec.message());
  }
  return Status::OK();
}

}  // namespace

Result<uint64_t> CountStorageOps(const TortureConfig& config,
                                 std::vector<TraceEntry>* trace) {
  BTRIM_RETURN_IF_ERROR(ResetDir(config.dir));
  auto plan = std::make_shared<FaultPlan>(config.workload_seed);
  plan->EnableTrace(true);

  Result<std::unique_ptr<Database>> opened =
      Database::Open(TortureDbOptions(config, plan));
  if (!opened.ok()) return opened.status();
  Result<Table*> created = CreateKvTable(opened->get());
  if (!created.ok()) return created.status();

  Expectations exp;
  TortureStats stats;
  RunWorkload(config, opened->get(), *created, plan.get(), &exp, &stats);
  opened->reset();
  if (trace != nullptr) *trace = plan->Trace();
  return plan->ops_seen();
}

Status RunCrashPoint(const TortureConfig& config, uint64_t crash_op,
                     TortureStats* stats) {
  TortureStats local;
  if (stats == nullptr) stats = &local;
  *stats = TortureStats{};
  stats->crash_op = crash_op;

  BTRIM_RETURN_IF_ERROR(ResetDir(config.dir));
  auto plan = std::make_shared<FaultPlan>(config.workload_seed);
  plan->CrashAtOp(crash_op);

  Expectations exp;
  {
    Result<std::unique_ptr<Database>> opened =
        Database::Open(TortureDbOptions(config, plan));
    if (opened.ok()) {
      Result<Table*> created = CreateKvTable(opened->get());
      if (created.ok()) {
        RunWorkload(config, opened->get(), *created, plan.get(), &exp, stats);
      } else if (!plan->crashed()) {
        return created.status();
      }
      // A crash during table creation just means an empty database: the
      // verification below still must find zero rows.
    } else if (!plan->crashed()) {
      return opened.status();
    }
    // Destruction without sync: the decorators drop all pending state the
    // crash left behind, exactly like power loss.
  }
  stats->crash_fired = plan->crashed();

  return VerifyAfterRecovery(config, exp, stats);
}

}  // namespace testing
}  // namespace btrim
