// perfbench_driver: the load generator behind perfbench/run.py.
//
//   perfbench_driver buildinfo
//   perfbench_driver tpcc --seed N --seconds S --trace 0|1 --out FILE
//                    [--trace-out FILE] --data-dir DIR --durable 0|1
//                    --warehouses W --terminals T --imrs-mb M
//                    --cache-frames F --warmup-commits N
//                    --checkpoint-every N
//   perfbench_driver kv --seed N --seconds S --trace 0|1 --out FILE
//                    [--trace-out FILE] --port P --rate R --conns C
//                    --keys K --value-bytes B --warmup SECONDS
//
// `tpcc` runs TPC-C terminals in-process against a Database; `kv` is an
// open-loop client of a btrim_server started by run.py. Both write one JSON
// document of raw measurements to --out: per-operation latency samples,
// setup times, metrics-registry snapshots taken at the start and end of the
// measured phase, and the result of every correctness check. run.py turns it
// into metrics. Spans are recorded around the driver's own calls into the
// engine (tpcc::Run*, tpcc::LoadDatabase, Database::Checkpoint/Recover,
// net::Client requests) into a TraceRing, and written as Chrome trace JSON
// with --trace-out.
//
// Every argument is required. Exit status: 0 when the document was written
// (check failures are reported inside it), 2 on bad or missing arguments, 3
// on a build that must not be measured, 1 on any other error.

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "engine/database.h"
#include "net/client.h"
#include "obs/metric.h"
#include "obs/metrics_io.h"
#include "obs/trace_ring.h"
#include "tpcc/loader.h"
#include "tpcc/schema.h"
#include "tpcc/txns.h"

using namespace btrim;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// --- build guard ------------------------------------------------------------

struct BuildInfo {
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string sanitize = PERFBENCH_SANITIZE;
#ifdef BTRIM_LOCK_ORDER_CHECKS
  bool lock_order_checks = true;
#else
  bool lock_order_checks = false;
#endif
#ifdef BTRIM_PARANOID_CHECKS
  bool paranoid_checks = true;
#else
  bool paranoid_checks = false;
#endif
#ifdef NDEBUG
  bool ndebug = true;
#else
  bool ndebug = false;
#endif

  /// Empty when this build measures the program users run; else why not.
  std::string Refusal() const {
    if (build_type != "Release" && build_type != "RelWithDebInfo") {
      return "build type " + build_type + " is not an optimized build";
    }
    if (!sanitize.empty()) return "sanitizer build (" + sanitize + ")";
    if (lock_order_checks) return "built with BTRIM_LOCK_ORDER_CHECKS";
    if (paranoid_checks) return "built with BTRIM_PARANOID_CHECKS";
    if (!ndebug) return "assertions enabled (NDEBUG unset)";
    return "";
  }
};

// --- JSON output --------------------------------------------------------------

/// Minimal streaming JSON object writer (keys are identifiers).
class JsonWriter {
 public:
  JsonWriter() { out_ = "{"; }

  void Num(const char* key, double v) {
    Key(key);
    char buf[64];
    snprintf(buf, sizeof(buf), std::isfinite(v) ? "%.9g" : "null", v);
    out_ += buf;
  }
  void Int(const char* key, int64_t v) {
    Key(key);
    out_ += std::to_string(v);
  }
  void Bool(const char* key, bool v) {
    Key(key);
    out_ += v ? "true" : "false";
  }
  void Str(const char* key, const std::string& v) {
    Key(key);
    obs::AppendJsonString(&out_, v);
  }
  void Raw(const char* key, const std::string& json) {
    Key(key);
    out_ += json;
  }
  /// Samples rounded to 0.1 us, which keeps the document small.
  void Samples(const char* key, const std::vector<float>& v) {
    Key(key);
    out_ += '[';
    char buf[32];
    for (size_t i = 0; i < v.size(); ++i) {
      snprintf(buf, sizeof(buf), i == 0 ? "%.1f" : ",%.1f", v[i]);
      out_ += buf;
    }
    out_ += ']';
  }
  void Nums(const char* key, const std::vector<double>& v) {
    Key(key);
    out_ += '[';
    char buf[40];
    for (size_t i = 0; i < v.size(); ++i) {
      snprintf(buf, sizeof(buf), i == 0 ? "%.9g" : ",%.9g", v[i]);
      out_ += buf;
    }
    out_ += ']';
  }
  void Object(const char* key, const std::function<void(JsonWriter*)>& fill) {
    JsonWriter inner;
    fill(&inner);
    Raw(key, inner.Finish());
  }

  std::string Finish() { return out_ + "}"; }

 private:
  void Key(const char* key) {
    if (out_.size() > 1) out_ += ',';
    obs::AppendJsonString(&out_, key);
    out_ += ':';
  }
  std::string out_;
};

/// One correctness check's outcome, in run order.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

std::string ChecksJson(const std::vector<Check>& checks) {
  std::string out = "[";
  for (size_t i = 0; i < checks.size(); ++i) {
    JsonWriter w;
    w.Str("name", checks[i].name);
    w.Bool("ok", checks[i].ok);
    w.Str("detail", checks[i].detail);
    if (i > 0) out += ',';
    out += w.Finish();
  }
  return out + "]";
}

/// Peak resident set (VmHWM) of this process, in KiB.
int64_t PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

/// Bytes of the regular files under `dir`; `*logs` gets the share in
/// write-ahead logs (*.wal).
int64_t DirBytes(const std::string& dir, int64_t* logs) {
  int64_t total = 0;
  *logs = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (!e.is_regular_file(ec)) continue;
    const auto size = static_cast<int64_t>(e.file_size(ec));
    total += size;
    if (e.path().extension() == ".wal") *logs += size;
  }
  return total;
}

/// Sum of a metric over every label set in the registry.
int64_t RegistrySum(const obs::MetricsRegistry& registry, const char* name) {
  int64_t total = 0;
  for (const obs::MetricSample& m : registry.Snapshot()) {
    if (m.name == name) total += m.value;
  }
  return total;
}

// --- spans --------------------------------------------------------------------

/// Spans live in memory until exit; the ring keeps the newest 64Ki.
obs::TraceRing* Spans() {
  static obs::TraceRing ring(1 << 16);
  return &ring;
}

/// Whether spans are recorded right now. The traced run toggles it in
/// fixed slices so traced and untraced throughput can be compared under
/// the same conditions (trace.overhead_frac).
std::atomic<bool> g_tracing{false};

constexpr double kTraceSliceSeconds = 0.1;

/// Runs the measured phase until `seconds` have passed. With `trace`, the
/// slices go untraced, traced, traced, untraced, ... so a steady drift in
/// throughput over the run cancels out of the comparison.
/// Returns {traced_s, untraced_s}.
std::pair<double, double> MeasurePhase(double seconds, bool trace) {
  const Clock::time_point start = Clock::now();
  double traced_s = 0, untraced_s = 0;
  for (int slice = 0; SecondsSince(start) < seconds; ++slice) {
    const Clock::time_point slice_start = Clock::now();
    const bool on = trace && (slice % 4 == 1 || slice % 4 == 2);
    g_tracing.store(on, std::memory_order_relaxed);
    const double left = seconds - SecondsSince(start);
    std::this_thread::sleep_for(std::chrono::duration<double>(
        trace ? std::min(kTraceSliceSeconds, left) : left));
    (on ? traced_s : untraced_s) += SecondsSince(slice_start);
  }
  g_tracing.store(false, std::memory_order_relaxed);
  return {traced_s, untraced_s};
}

// --- TPC-C ------------------------------------------------------------------

constexpr int kTxnTypes = 5;
const char* const kTxnNames[kTxnTypes] = {
    "new_order", "payment", "order_status", "delivery", "stock_level"};
const char* const kTxnSpans[kTxnTypes] = {
    "tpcc.RunNewOrder", "tpcc.RunPayment", "tpcc.RunOrderStatus",
    "tpcc.RunDelivery", "tpcc.RunStockLevel"};

/// One TPC-C workload's sizes (run.py passes them from definition.json).
struct TpccProfile {
  bool durable;  ///< file-backed devices and logs, else in-memory
  int warehouses;
  int terminals;
  size_t imrs_bytes;
  size_t buffer_cache_frames;
  int64_t warmup_commits;    ///< 0: warm up until Pack relocates rows
  int64_t checkpoint_every;  ///< commits between checkpoints; 0 = none
};

/// Past this the warm-up has failed and the run is invalid.
constexpr double kWarmupCapSeconds = 30;

DatabaseOptions TpccOptions(const TpccProfile& p, const std::string& dir) {
  DatabaseOptions o;
  o.imrs_cache_bytes = p.imrs_bytes;
  o.buffer_cache_frames = p.buffer_cache_frames;
  o.cold_columnar = false;
  if (p.durable) {
    o.in_memory = false;
    o.data_dir = dir;
  }
  return o;
}

/// The loaded database is the same for every seed; --seed drives the
/// terminals' transaction streams.
constexpr uint64_t kLoadSeed = 42;

/// Commits run after Pack starts relocating before the ILM warm-up ends.
constexpr int64_t kSettleCommits = 10000;

/// Per-terminal tallies. Phase 0 is warm-up, 1 the measured phase.
struct TerminalStats {
  // Measured phase, committed only.
  std::vector<float> latency_us[kTxnTypes];
  int64_t attempted[2] = {0, 0};
  int64_t committed[2] = {0, 0};
  int64_t user_aborts[2] = {0, 0};
  int64_t failed[2] = {0, 0};
  int64_t traced_committed = 0;
  int64_t untraced_committed = 0;
  int64_t new_orders_acked = 0;  // every phase: the order-count check's input
  std::map<std::string, int64_t> failures;  // measured phase, by status
};

/// One database under TPC-C load: open, load, terminals, checkpointer.
class TpccRun {
 public:
  TpccRun(const TpccProfile& profile, uint64_t seed, int rep,
          std::string dir)
      : profile_(profile), seed_(seed), rep_(rep), dir_(std::move(dir)) {
    scale_.warehouses = profile.warehouses;
  }

  ~TpccRun() { Stop(); }

  TpccRun(const TpccRun&) = delete;
  TpccRun& operator=(const TpccRun&) = delete;

  /// Opens a fresh database and loads it. Returns the load time (s).
  Result<double> OpenAndLoad() {
    if (profile_.durable) {
      std::filesystem::remove_all(dir_);
      std::filesystem::create_directories(dir_);
    }
    Result<std::unique_ptr<Database>> db =
        Database::Open(TpccOptions(profile_, dir_));
    if (!db.ok()) return db.status();
    db_ = std::move(*db);
    Result<tpcc::Tables> tables = tpcc::CreateTables(db_.get(), scale_);
    if (!tables.ok()) return tables.status();
    const Clock::time_point t0 = Clock::now();
    {
      obs::TraceSpan span(Spans(), "tpcc.LoadDatabase", "perfbench");
      BTRIM_RETURN_IF_ERROR(
          tpcc::LoadDatabase(db_.get(), *tables, scale_, kLoadSeed));
    }
    const double load_s = SecondsSince(t0);
    ctx_.db = db_.get();
    ctx_.tables = *tables;
    ctx_.scale = scale_;
    ctx_.next_history_id = static_cast<int64_t>(scale_.warehouses) *
                               scale_.districts_per_warehouse *
                               scale_.customers_per_district +
                           1;
    return load_s;
  }

  /// Starts background work, the terminals and (durable) the checkpointer.
  void Start() {
    db_->StartBackground();
    stats_.resize(static_cast<size_t>(profile_.terminals));
    for (int i = 0; i < profile_.terminals; ++i) {
      threads_.emplace_back([this, i] { Terminal(i); });
    }
    if (profile_.checkpoint_every > 0) {
      threads_.emplace_back([this] { Checkpointer(); });
    }
  }

  /// Blocks until the warm-up condition holds. False when it never did.
  bool WarmUp(std::string* why) {
    const Clock::time_point t0 = Clock::now();
    int64_t packing_since = 0;
    const int64_t steady = static_cast<int64_t>(
        db_->options().ilm.steady_cache_pct *
        static_cast<double>(profile_.imrs_bytes));
    while (SecondsSince(t0) < kWarmupCapSeconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (profile_.warmup_commits > 0) {
        if (commits_.load() >= profile_.warmup_commits) return true;
        continue;
      }
      // ILM regime: the IMRS is at its steady level and Pack has been
      // relocating rows for a while.
      const obs::MetricsRegistry& r = *db_->metrics_registry();
      if (RegistrySum(r, "imrs_cache.in_use_bytes") < steady * 9 / 10 ||
          RegistrySum(r, "pack.rows_packed") == 0) {
        packing_since = commits_.load();
      } else if (commits_.load() - packing_since >= kSettleCommits) {
        return true;
      }
    }
    *why = "warm-up did not reach its condition within " +
           std::to_string(kWarmupCapSeconds) + " s";
    return false;
  }

  void BeginMeasure() { phase_.store(1, std::memory_order_release); }

  /// Stops terminals and checkpointer, then background work.
  void Stop() {
    phase_.store(2, std::memory_order_release);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    if (db_ != nullptr) db_->StopBackground();
  }

  /// Destroys the database without a closing checkpoint: dirty buffer-cache
  /// pages are dropped, log bytes already written stay in the OS cache.
  void Crash() { db_.reset(); }

  Database* db() { return db_.get(); }
  const tpcc::Tables& tables() const { return ctx_.tables; }
  const tpcc::Scale& scale() const { return scale_; }
  const std::vector<TerminalStats>& stats() const { return stats_; }
  const std::vector<double>& checkpoint_s() const { return checkpoint_s_; }
  const std::vector<std::string>& checkpoint_errors() const {
    return checkpoint_errors_;
  }

  int64_t commits() const { return commits_.load(); }

  int64_t NewOrdersAcked() const {
    int64_t n = 0;
    for (const TerminalStats& s : stats_) n += s.new_orders_acked;
    return n;
  }

 private:
  void Terminal(int id) {
    TerminalStats& st = stats_[static_cast<size_t>(id)];
    tpcc::TpccRandom rnd(seed_ * 1000003 + static_cast<uint64_t>(rep_) * 7919 +
                         static_cast<uint64_t>(id));
    // Each terminal has a fixed home warehouse, as in the TPC-C spec.
    const int w_id = id % scale_.warehouses + 1;
    for (;;) {
      const int phase = phase_.load(std::memory_order_acquire);
      if (phase >= 2) break;
      const bool traced = g_tracing.load(std::memory_order_relaxed);
      const int dice = static_cast<int>(rnd.Uniform(1, 100));
      const int type = dice <= 45 ? 0 : dice <= 88 ? 1 : dice <= 92 ? 2
                       : dice <= 96 ? 3 : 4;
      const Clock::time_point t0 = Clock::now();
      tpcc::TxnResult r;
      switch (type) {
        case 0: r = tpcc::RunNewOrder(&ctx_, &rnd, w_id); break;
        case 1: r = tpcc::RunPayment(&ctx_, &rnd, w_id); break;
        case 2: r = tpcc::RunOrderStatus(&ctx_, &rnd, w_id); break;
        case 3: r = tpcc::RunDelivery(&ctx_, &rnd, w_id); break;
        default: r = tpcc::RunStockLevel(&ctx_, &rnd, w_id); break;
      }
      const double us = MicrosBetween(t0, Clock::now());
      if (traced) {
        Spans()->Record(kTxnSpans[type], "perfbench",
                        static_cast<int64_t>(us), r.committed ? 1 : 0);
      }
      ++st.attempted[phase];
      if (r.committed) {
        ++st.committed[phase];
        if (type == 0) ++st.new_orders_acked;
        commits_.fetch_add(1, std::memory_order_relaxed);
        if (phase == 1) {
          st.latency_us[type].push_back(static_cast<float>(us));
          ++(traced ? st.traced_committed : st.untraced_committed);
        }
      } else if (r.user_abort) {
        ++st.user_aborts[phase];
      } else {
        ++st.failed[phase];
        if (phase == 1) ++st.failures[r.status.ToString().substr(0, 60)];
      }
    }
  }

  void Checkpointer() {
    int64_t next = profile_.checkpoint_every;
    while (phase_.load(std::memory_order_acquire) < 2) {
      if (commits_.load(std::memory_order_relaxed) < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      next += profile_.checkpoint_every;
      const bool measured = phase_.load(std::memory_order_acquire) == 1;
      const Clock::time_point t0 = Clock::now();
      Status s;
      {
        obs::TraceSpan span(Spans(), "Database::Checkpoint", "perfbench");
        s = db_->Checkpoint();
      }
      if (!s.ok()) checkpoint_errors_.push_back(s.ToString());
      if (measured) checkpoint_s_.push_back(SecondsSince(t0));
    }
  }

  const TpccProfile profile_;
  const uint64_t seed_;
  const int rep_;
  const std::string dir_;
  tpcc::Scale scale_;
  std::unique_ptr<Database> db_;
  tpcc::TpccContext ctx_;
  std::atomic<int> phase_{0};
  std::atomic<int64_t> commits_{0};
  std::vector<TerminalStats> stats_;
  std::vector<double> checkpoint_s_;             // checkpointer thread only
  std::vector<std::string> checkpoint_errors_;   // checkpointer thread only
  std::vector<std::thread> threads_;
};

std::string RangeKey(int w, int d) {
  std::string key;
  KeyEncoder::AppendInt(&key, w);
  KeyEncoder::AppendInt(&key, d);
  return key;
}

/// The TPC-C consistency conditions (spec clause 3.3.2.1-3) plus the order
/// count: W_YTD = sum(D_YTD); D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID),
/// with O_IDs 1..D_NEXT_O_ID-1 each present exactly once; and the number
/// of orders = loaded + acknowledged NewOrders.
void CheckTpcc(Database* db, const tpcc::Tables& t, const tpcc::Scale& scale,
               int64_t expected_orders, const std::string& when,
               std::vector<Check>* out) {
  Check ytd{when + ".w_ytd_eq_sum_d_ytd", true, ""};
  Check orders{when + ".next_o_id_eq_max_o_id", true, ""};
  Check new_orders{when + ".next_o_id_eq_max_no_o_id", true, ""};
  Check count{when + ".orders_eq_loaded_plus_acked", true, ""};
  auto fail = [](Check* c, const std::string& why) {
    if (c->ok) c->detail = why;
    c->ok = false;
  };
  std::unique_ptr<Transaction> txn = db->Begin();
  int64_t total_orders = 0;
  for (int w = 1; w <= scale.warehouses; ++w) {
    std::string row;
    Status s = db->SelectByKey(txn.get(), t.warehouse,
                               t.warehouse->pk_encoder().KeyForInts({w}), &row);
    if (!s.ok()) {
      fail(&ytd, "warehouse " + std::to_string(w) + ": " + s.ToString());
      continue;
    }
    const double w_ytd =
        RecordView(&t.warehouse->schema(), Slice(row)).GetDouble(tpcc::wh::kYtd);
    double d_ytd_sum = 0;
    for (int d = 1; d <= scale.districts_per_warehouse; ++d) {
      s = db->SelectByKey(txn.get(), t.district,
                          t.district->pk_encoder().KeyForInts({w, d}), &row);
      if (!s.ok()) {
        fail(&orders, "district " + std::to_string(d) + ": " + s.ToString());
        continue;
      }
      RecordView dv(&t.district->schema(), Slice(row));
      d_ytd_sum += dv.GetDouble(tpcc::dist::kYtd);
      const int64_t next_o_id = dv.GetInt(tpcc::dist::kNextOId);
      const std::string where =
          "w" + std::to_string(w) + "d" + std::to_string(d) + ": ";

      std::vector<ScanRow> rows;
      s = db->ScanIndex(txn.get(), t.orders, -1, Slice(RangeKey(w, d)),
                        Slice(RangeKey(w, d + 1)), 0, &rows);
      if (!s.ok()) {
        fail(&orders, where + s.ToString());
        continue;
      }
      total_orders += static_cast<int64_t>(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        const int64_t o_id = RecordView(&t.orders->schema(),
                                        Slice(rows[i].payload))
                                 .GetInt(tpcc::ord::kOId);
        if (o_id != static_cast<int64_t>(i) + 1) {
          fail(&orders, where + "order ids not 1..n exactly once (at " +
                            std::to_string(i + 1) + " found " +
                            std::to_string(o_id) + ")");
          break;
        }
      }
      if (static_cast<int64_t>(rows.size()) != next_o_id - 1) {
        fail(&orders, where + std::to_string(rows.size()) +
                          " orders, D_NEXT_O_ID " + std::to_string(next_o_id));
      }

      rows.clear();
      s = db->ScanIndex(txn.get(), t.new_orders, -1, Slice(RangeKey(w, d)),
                        Slice(RangeKey(w, d + 1)), 0, &rows);
      if (!s.ok()) {
        fail(&new_orders, where + s.ToString());
      } else if (!rows.empty()) {
        const int64_t max_no = RecordView(&t.new_orders->schema(),
                                          Slice(rows.back().payload))
                                   .GetInt(tpcc::no::kOId);
        if (max_no != next_o_id - 1) {
          fail(&new_orders, where + "max NO_O_ID " + std::to_string(max_no) +
                                ", D_NEXT_O_ID " + std::to_string(next_o_id));
        }
      }
    }
    if (std::fabs(w_ytd - d_ytd_sum) > 0.01 + 1e-9 * std::fabs(w_ytd)) {
      char buf[128];
      snprintf(buf, sizeof(buf), "w%d: W_YTD %.2f, sum(D_YTD) %.2f", w, w_ytd,
               d_ytd_sum);
      fail(&ytd, buf);
    }
  }
  Status c = db->Commit(txn.get());
  if (!c.ok()) fail(&count, "check transaction: " + c.ToString());
  if (total_orders != expected_orders) {
    fail(&count, std::to_string(total_orders) + " orders, expected " +
                     std::to_string(expected_orders));
  }
  count.detail = count.ok ? std::to_string(total_orders) + " orders"
                          : count.detail;
  out->insert(out->end(), {ytd, orders, new_orders, count});
}

/// Reopens a crashed database's files, times Recover() and checks the
/// recovered state.
Status RecoverAndCheck(const TpccProfile& profile, const std::string& dir,
                       const tpcc::Scale& scale, int64_t expected_orders,
                       double* recovery_s, std::vector<Check>* checks) {
  Result<std::unique_ptr<Database>> opened =
      Database::Open(TpccOptions(profile, dir));
  if (!opened.ok()) return opened.status();
  std::unique_ptr<Database> db = std::move(*opened);
  Result<tpcc::Tables> tables = tpcc::CreateTables(db.get(), scale);
  if (!tables.ok()) return tables.status();
  const Clock::time_point t0 = Clock::now();
  {
    obs::TraceSpan span(Spans(), "Database::Recover", "perfbench");
    BTRIM_RETURN_IF_ERROR(db->Recover());
  }
  *recovery_s = SecondsSince(t0);
  CheckTpcc(db.get(), *tables, scale, expected_orders, "recovered", checks);
  return Status::OK();
}

/// Setups performed per run; setup_s is their median.
constexpr int kSetups = 3;

int RunTpcc(const TpccProfile& profile, uint64_t seed, double seconds,
            bool trace, const std::string& data_dir, JsonWriter* out) {
  std::vector<double> setup_s, load_s;
  std::vector<Check> checks;
  std::unique_ptr<TpccRun> run;
  std::string invalid;

  for (int rep = 0; rep < kSetups; ++rep) {
    const Clock::time_point t0 = Clock::now();
    run = std::make_unique<TpccRun>(profile, seed, rep, data_dir);
    Result<double> loaded = run->OpenAndLoad();
    if (!loaded.ok()) {
      fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    load_s.push_back(*loaded);
    run->Start();
    std::string why;
    if (!run->WarmUp(&why)) invalid = why;
    setup_s.push_back(SecondsSince(t0));
    if (rep + 1 < kSetups) run.reset();
  }

  obs::MetricsRegistry* registry = run->db()->metrics_registry();
  const std::string registry_start = registry->ToJson();
  run->BeginMeasure();
  const Clock::time_point m0 = Clock::now();
  const auto [traced_s, untraced_s] = MeasurePhase(seconds, trace);
  const double measure_s = SecondsSince(m0);
  const std::string registry_end = registry->ToJson();
  const int64_t rss_kb = PeakRssKb();
  run->Stop();

  for (const std::string& e : run->checkpoint_errors()) {
    checks.push_back({"checkpoint", false, e});
  }
  const tpcc::Scale scale = run->scale();
  const int64_t loaded_orders = static_cast<int64_t>(scale.warehouses) *
                                scale.districts_per_warehouse *
                                scale.orders_per_district;
  const int64_t expected_orders = loaded_orders + run->NewOrdersAcked();
  const int64_t committed_total = run->commits();
  CheckTpcc(run->db(), run->tables(), scale, expected_orders, "run", &checks);

  double recovery_s = 0;
  int64_t disk_bytes = 0, log_bytes = 0;
  if (profile.durable) {
    disk_bytes = DirBytes(data_dir, &log_bytes);
    run->Crash();
    const Status s = RecoverAndCheck(profile, data_dir, scale, expected_orders,
                                     &recovery_s, &checks);
    checks.push_back({"recover", s.ok(), s.ToString()});
    std::filesystem::remove_all(data_dir);
  }

  // --- document -------------------------------------------------------------
  const std::vector<double> checkpoint_s = run->checkpoint_s();
  int64_t attempted = 0, committed = 0, failed = 0, user_aborts = 0;
  int64_t traced_ops = 0, untraced_ops = 0;
  std::map<std::string, int64_t> failures;
  std::vector<float> by_type[kTxnTypes];
  for (const TerminalStats& st : run->stats()) {
    attempted += st.attempted[1];
    committed += st.committed[1];
    failed += st.failed[1];
    user_aborts += st.user_aborts[1];
    traced_ops += st.traced_committed;
    untraced_ops += st.untraced_committed;
    for (const auto& [k, v] : st.failures) failures[k] += v;
    for (int i = 0; i < kTxnTypes; ++i) {
      by_type[i].insert(by_type[i].end(), st.latency_us[i].begin(),
                        st.latency_us[i].end());
    }
  }
  run.reset();

  out->Str("workload_kind", "tpcc");
  out->Object("config", [&](JsonWriter* c) {
    c->Int("warehouses", profile.warehouses);
    c->Int("terminals", profile.terminals);
    c->Int("imrs_bytes", static_cast<int64_t>(profile.imrs_bytes));
    c->Int("buffer_cache_bytes",
           static_cast<int64_t>(profile.buffer_cache_frames) * 8192);
    c->Str("storage", profile.durable ? "file" : "memory");
    c->Int("checkpoint_every_commits", profile.checkpoint_every);
    c->Bool("cold_columnar", false);
  });
  out->Nums("setup_s", setup_s);
  out->Nums("load_s", load_s);
  out->Num("measure_s", measure_s);
  out->Num("traced_s", traced_s);
  out->Num("untraced_s", untraced_s);
  out->Int("traced_ops", traced_ops);
  out->Int("untraced_ops", untraced_ops);
  out->Int("attempted", attempted);
  out->Int("ok", committed);
  out->Int("committed_total", committed_total);
  out->Int("user_aborts", user_aborts);
  out->Int("failed", failed);
  out->Object("failures", [&](JsonWriter* f) {
    for (const auto& [k, v] : failures) f->Int(k.c_str(), v);
  });
  out->Object("latency_us", [&](JsonWriter* l) {
    for (int i = 0; i < kTxnTypes; ++i) l->Samples(kTxnNames[i], by_type[i]);
  });
  out->Nums("checkpoint_s", checkpoint_s);
  out->Num("recovery_s", recovery_s);
  out->Int("disk_bytes", disk_bytes);
  out->Int("log_bytes", log_bytes);
  out->Int("rss_peak_kb", rss_kb);
  out->Raw("registry_start", registry_start);
  out->Raw("registry_end", registry_end);
  out->Str("invalid", invalid);
  out->Raw("checks", ChecksJson(checks));
  return 0;
}

// --- kv over the wire -----------------------------------------------------------

/// YCSB's scrambled Zipfian over [0, n): rank r has probability
/// ~ 1/(r+1)^theta, and ranks are hashed so hot keys spread over the tree.
class ScrambledZipf {
 public:
  ScrambledZipf(uint64_t n, double theta)
      : n_(n), theta_(theta), zetan_(Zeta(n, theta)) {
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - Zeta(2, theta) / zetan_);
  }

  int64_t Next(Random* rng) const {
    const double u = rng->NextDouble();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    rank = std::min(rank, n_ - 1);
    uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the rank's bytes
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((rank >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
    return static_cast<int64_t>(h % n_);
  }

 private:
  static double Zeta(uint64_t n, double theta) {
    double sum = 0;
    for (uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  }

  const uint64_t n_;
  const double theta_;
  const double zetan_;
  double alpha_ = 0;
  double eta_ = 0;
};

struct KvOptions {
  int port;
  int conns;
  double rate;   ///< offered requests per second, all connections
  int64_t keys;  ///< rows the server preloaded: keys [0, keys)
  int value_bytes;
  double warmup_seconds;
};

constexpr int kPutPct = 5;
constexpr double kZipfTheta = 0.99;
constexpr int kVerifyKeys = 500;

/// Pins the calling thread to the `index`-th CPU this process may use, so
/// a connection's sender and receiver always share one core and the
/// scheduler's placement does not change the measured wire time.
void PinToAllowedCpu(int index) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<size_t>(index) % cpus.size()], &one);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

/// One scheduled request of the open loop.
struct KvEntry {
  Clock::time_point sched;
  Clock::time_point sent;
  int64_t key = 0;
  bool put = false;
  bool traced = false;
};

std::string PutValue(int conn, int64_t seq, int bytes) {
  std::string v = "c" + std::to_string(conn) + "s" + std::to_string(seq);
  v.resize(static_cast<size_t>(std::max<int>(bytes, 1)), 'x');
  return v;
}

/// One connection of the open loop: a sender that sends on schedule and a
/// receiver that matches replies in order (the server replies per
/// connection in request order).
class KvConn {
 public:
  KvConn(int id, const KvOptions& o, std::unique_ptr<net::Client> client)
      : id_(id), o_(o), client_(std::move(client)) {}

  void Run(Clock::time_point t0, Clock::time_point measure_from,
           Clock::time_point end, const ScrambledZipf& zipf, uint64_t seed) {
    const double per_conn_interval = static_cast<double>(o_.conns) / o_.rate;
    const int64_t expected =
        static_cast<int64_t>(std::chrono::duration<double>(end - t0).count() /
                             per_conn_interval) + 2;
    entries_.resize(static_cast<size_t>(expected));
    measure_from_ = measure_from;
    end_ = end;
    PinToAllowedCpu(id_);
    std::thread receiver([this] {
      PinToAllowedCpu(id_);
      Receive();
    });
    // Wake from sleep_until within a microsecond or so, not the default
    // 50 us timer slack, so lateness measures the generator, not the timer.
    (void)prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    Random rng(seed * 7919 + static_cast<uint64_t>(id_) + 1);
    const auto offset = std::chrono::duration<double>(
        per_conn_interval * id_ / o_.conns);
    std::string frame;
    for (int64_t i = 0; i < expected; ++i) {
      const Clock::time_point sched =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   offset + std::chrono::duration<double>(
                                per_conn_interval * static_cast<double>(i)));
      if (sched >= end) break;
      KvEntry& e = entries_[static_cast<size_t>(i)];
      e.sched = sched;
      e.put = static_cast<int>(rng.Uniform(100)) < kPutPct;
      e.key = zipf.Next(&rng);
      if (e.put) {
        // Each connection writes only its own residue class of keys, so the
        // last acknowledged Put of a key is well defined.
        e.key = e.key - e.key % o_.conns + id_;
        if (e.key >= o_.keys) e.key -= o_.conns;
      }
      std::this_thread::sleep_until(sched);
      e.traced = g_tracing.load(std::memory_order_relaxed);
      net::Request req;
      req.op = e.put ? net::OpCode::kPut : net::OpCode::kGet;
      req.table = "kv";
      req.key = e.key;
      if (e.put) req.value = PutValue(id_, i, o_.value_bytes);
      frame.clear();
      net::AppendRequestFrame(&frame, req);
      e.sent = Clock::now();
      sent_.store(i + 1, std::memory_order_release);
      if (!client_->SendBytes(frame.data(), frame.size()).ok()) {
        send_failed_ = true;
        break;
      }
    }
    sender_done_.store(true, std::memory_order_release);
    receiver.join();
  }

  // Results (read after Run returns).
  // Requests scheduled in the measured phase: latency from schedule.
  std::vector<float> get_us, put_us;
  // Successful replies that arrived inside the measured phase, whenever
  // they were scheduled: a server that falls behind delivers fewer.
  int64_t arrived_ok = 0;
  std::vector<float> send_us;          // measured phase, from actual send
  std::vector<float> late_us;          // measured phase, send - schedule
  std::vector<float> traced_us, untraced_us;
  int64_t attempted = 0, ok = 0, failed = 0;
  std::map<std::string, int64_t> failures;
  std::unordered_map<int64_t, int64_t> last_acked;  // key -> Put seq
  std::vector<int64_t> ambiguous;  // keys with a failed Put
  bool send_failed_ = false;

 private:
  void Receive() {
    int64_t next = 0;
    for (;;) {
      const int64_t sent = sent_.load(std::memory_order_acquire);
      if (next >= sent) {
        if (sender_done_.load(std::memory_order_acquire) &&
            next >= sent_.load(std::memory_order_acquire)) {
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      Result<net::Response> resp = client_->RecvResponse();
      const Clock::time_point now = Clock::now();
      const KvEntry& e = entries_[static_cast<size_t>(next)];
      const bool measured = e.sched >= measure_from_;
      if (resp.ok() && resp->ok() && now >= measure_from_ && now < end_) {
        ++arrived_ok;
      }
      if (!resp.ok()) {
        // Transport error: this and every outstanding request failed.
        const int64_t lost = sent_.load(std::memory_order_acquire) - next;
        failed += lost;
        attempted += lost;
        failures["transport: " + resp.status().ToString()] += lost;
        for (int64_t i = next; i < sent_.load(); ++i) {
          if (entries_[static_cast<size_t>(i)].put) {
            ambiguous.push_back(entries_[static_cast<size_t>(i)].key);
          }
        }
        return;
      }
      const double from_sched = MicrosBetween(e.sched, now);
      if (e.traced) {
        Spans()->Record(e.put ? "net::Client::Put" : "net::Client::Get",
                        "perfbench", static_cast<int64_t>(
                                         MicrosBetween(e.sent, now)));
      }
      if (resp->ok()) {
        if (e.put) last_acked[e.key] = next;
      } else if (e.put) {
        ambiguous.push_back(e.key);
      }
      if (measured) {
        ++attempted;
        if (resp->ok()) {
          ++ok;
          (e.put ? put_us : get_us).push_back(static_cast<float>(from_sched));
          send_us.push_back(static_cast<float>(MicrosBetween(e.sent, now)));
          (e.traced ? traced_us : untraced_us)
              .push_back(static_cast<float>(from_sched));
        } else {
          ++failed;
          ++failures[resp->message.substr(0, 60)];
        }
        late_us.push_back(static_cast<float>(MicrosBetween(e.sched, e.sent)));
      }
      ++next;
    }
  }

  const int id_;
  const KvOptions o_;
  std::unique_ptr<net::Client> client_;
  std::vector<KvEntry> entries_;
  Clock::time_point measure_from_;
  Clock::time_point end_;
  std::atomic<int64_t> sent_{0};
  std::atomic<bool> sender_done_{false};
};

int RunKv(const KvOptions& o, uint64_t seed, double seconds, bool trace,
          JsonWriter* out) {
  const std::string host = "127.0.0.1";
  Result<std::unique_ptr<net::Client>> control =
      net::Client::Connect(host, o.port, "perfbench");
  if (!control.ok()) {
    fprintf(stderr, "connect: %s\n", control.status().ToString().c_str());
    return 1;
  }
  std::vector<std::unique_ptr<KvConn>> conns;
  for (int c = 0; c < o.conns; ++c) {
    Result<std::unique_ptr<net::Client>> client =
        net::Client::Connect(host, o.port, "perfbench");
    if (!client.ok()) {
      fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
      return 1;
    }
    conns.push_back(
        std::make_unique<KvConn>(c, o, std::move(*client)));
  }
  const ScrambledZipf zipf(static_cast<uint64_t>(o.keys), kZipfTheta);

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
  const Clock::time_point measure_from =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(o.warmup_seconds));
  const Clock::time_point end =
      measure_from + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> senders;
  for (auto& c : conns) {
    senders.emplace_back([&, conn = c.get()] {
      conn->Run(t0, measure_from, end, zipf, seed);
    });
  }
  std::this_thread::sleep_until(measure_from);
  Check marks{"kv.marks", true, ""};
  Result<net::Response> mark = (*control)->Mark(1);
  if (!mark.ok() || !mark->ok()) marks = {"kv.marks", false, "mark 1 failed"};
  const auto [traced_s, untraced_s] = MeasurePhase(seconds, trace);
  for (auto& t : senders) t.join();
  const double measure_s =
      std::chrono::duration<double>(end - measure_from).count();
  mark = (*control)->Mark(2);
  if (!mark.ok() || !mark->ok()) marks = {"kv.marks", false, "mark 2 failed"};

  // Read back a seeded sample of written keys: each must hold its last
  // acknowledged Put.
  std::vector<std::pair<int64_t, std::string>> written;
  for (size_t c = 0; c < conns.size(); ++c) {
    std::vector<int64_t> skip = conns[c]->ambiguous;
    std::sort(skip.begin(), skip.end());
    for (const auto& [key, seq] : conns[c]->last_acked) {
      if (!std::binary_search(skip.begin(), skip.end(), key)) {
        written.emplace_back(key,
                             PutValue(static_cast<int>(c), seq, o.value_bytes));
      }
    }
  }
  std::sort(written.begin(), written.end());
  Random pick(seed ^ 0x5eedull);
  for (size_t i = written.size(); i > 1; --i) {
    std::swap(written[i - 1], written[pick.Uniform(i)]);
  }
  written.resize(std::min(written.size(), static_cast<size_t>(kVerifyKeys)));
  Check readback{"kv.read_back_last_acked_put", !written.empty(),
                 written.empty() ? "no acknowledged Put to read back" : ""};
  int64_t matched = 0;
  for (const auto& [key, value] : written) {
    Result<net::Response> got = (*control)->Get("kv", key);
    if (got.ok() && got->ok() && got->value == value) {
      ++matched;
    } else if (readback.ok) {
      readback.ok = false;
      readback.detail = "key " + std::to_string(key) + ": " +
                        (got.ok() ? got->message + " '" + got->value + "'"
                                  : got.status().ToString());
    }
  }
  if (readback.ok) {
    readback.detail = std::to_string(matched) + "/" +
                      std::to_string(written.size()) + " keys matched";
  }

  int64_t attempted = 0, ok = 0, failed = 0, arrived_ok = 0;
  std::map<std::string, int64_t> failures;
  std::vector<float> get_us, put_us, send_us, late_us, traced_us, untraced_us;
  auto append = [](std::vector<float>* to, const std::vector<float>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  Check sends{"kv.sends", true, ""};
  for (const auto& c : conns) {
    attempted += c->attempted;
    ok += c->ok;
    failed += c->failed;
    for (const auto& [k, v] : c->failures) failures[k] += v;
    arrived_ok += c->arrived_ok;
    append(&get_us, c->get_us);
    append(&put_us, c->put_us);
    append(&send_us, c->send_us);
    append(&late_us, c->late_us);
    append(&traced_us, c->traced_us);
    append(&untraced_us, c->untraced_us);
    if (c->send_failed_) sends = {"kv.sends", false, "a send failed"};
  }

  out->Str("workload_kind", "kv");
  out->Object("config", [&](JsonWriter* c) {
    c->Int("conns", o.conns);
    c->Num("offered_rate", o.rate);
    c->Int("keys", o.keys);
    c->Int("value_bytes", o.value_bytes);
    c->Int("put_pct", kPutPct);
    c->Num("zipf_theta", kZipfTheta);
    c->Num("warmup_s", o.warmup_seconds);
  });
  out->Num("warmup_s", o.warmup_seconds);
  out->Num("measure_s", measure_s);
  out->Num("traced_s", traced_s);
  out->Num("untraced_s", untraced_s);
  out->Int("attempted", attempted);
  out->Int("ok", ok);
  out->Int("arrived_ok", arrived_ok);
  out->Int("failed", failed);
  out->Object("failures", [&](JsonWriter* f) {
    for (const auto& [k, v] : failures) f->Int(k.c_str(), v);
  });
  out->Object("latency_us", [&](JsonWriter* l) {
    l->Samples("get", get_us);
    l->Samples("put", put_us);
  });
  out->Samples("send_to_reply_us", send_us);
  out->Samples("late_us", late_us);
  out->Samples("traced_us", traced_us);
  out->Samples("untraced_us", untraced_us);
  out->Raw("checks", ChecksJson({marks, sends, readback}));
  return 0;
}

// --- main ---------------------------------------------------------------------

std::string BuildInfoJson(const BuildInfo& b) {
  JsonWriter w;
  w.Str("build_type", b.build_type);
  w.Str("sanitize", b.sanitize);
  w.Bool("lock_order_checks", b.lock_order_checks);
  w.Bool("paranoid_checks", b.paranoid_checks);
  w.Bool("ndebug", b.ndebug);
  w.Num("steady_cache_pct", DatabaseOptions().ilm.steady_cache_pct);
  w.Str("refusal", b.Refusal());
  return w.Finish();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    fprintf(stderr, "usage: see the header of perfbench/driver.cc\n");
    return 2;
  }
  const std::string mode = argv[1];
  const BuildInfo build;
  if (mode == "buildinfo") {
    printf("%s\n", BuildInfoJson(build).c_str());
    return 0;
  }
  if (!build.Refusal().empty()) {
    fprintf(stderr, "refusing to measure: %s\n", build.Refusal().c_str());
    return 3;
  }

  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (strncmp(argv[i], "--", 2) != 0) {
      fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  std::vector<std::string> missing;
  auto need = [&](const char* name) -> std::string {
    auto it = args.find(name);
    if (it != args.end()) return it->second;
    missing.push_back(std::string("--") + name);
    return "0";
  };
  const auto trace_out = args.find("trace-out");
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_path, data_dir;
  TpccProfile p{};
  KvOptions o{};
  try {
    seed = std::stoull(need("seed"));
    seconds = std::stod(need("seconds"));
    trace = need("trace") == "1";
    out_path = need("out");
    if (mode == "tpcc") {
      p.durable = need("durable") == "1";
      p.warehouses = std::stoi(need("warehouses"));
      p.terminals = std::stoi(need("terminals"));
      p.imrs_bytes = std::stoull(need("imrs-mb")) << 20;
      p.buffer_cache_frames = std::stoull(need("cache-frames"));
      p.warmup_commits = std::stoll(need("warmup-commits"));
      p.checkpoint_every = std::stoll(need("checkpoint-every"));
      data_dir = need("data-dir");
    } else if (mode == "kv") {
      o.port = std::stoi(need("port"));
      o.conns = std::stoi(need("conns"));
      o.rate = std::stod(need("rate"));
      o.keys = std::stoll(need("keys"));
      o.value_bytes = std::stoi(need("value-bytes"));
      o.warmup_seconds = std::stod(need("warmup"));
    } else {
      fprintf(stderr, "unknown mode: %s\n", mode.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    fprintf(stderr, "bad argument value (%s)\n", e.what());
    return 2;
  }
  if (!missing.empty()) {
    for (const std::string& m : missing) {
      fprintf(stderr, "%s is required\n", m.c_str());
    }
    return 2;
  }
  if (mode == "tpcc" &&
      (p.warehouses < 1 || p.terminals < 1 || p.imrs_bytes == 0)) {
    fprintf(stderr, "tpcc needs --warehouses, --terminals, --imrs-mb > 0\n");
    return 2;
  }
  if (mode == "kv" &&
      (o.port <= 0 || o.keys < o.conns || o.conns < 1 || o.rate <= 0)) {
    fprintf(stderr, "kv needs --port, --keys >= --conns >= 1, --rate > 0\n");
    return 2;
  }

  JsonWriter doc;
  doc.Raw("build", BuildInfoJson(build));
  doc.Int("seed", static_cast<int64_t>(seed));
  doc.Bool("trace", trace);
  const int rc = mode == "tpcc"
                     ? RunTpcc(p, seed, seconds, trace, data_dir, &doc)
                     : RunKv(o, seed, seconds, trace, &doc);
  if (rc != 0) return rc;
  doc.Int("spans_recorded", Spans()->total_recorded());
  Status s = obs::WriteFileOrError(out_path, doc.Finish());
  if (s.ok() && trace_out != args.end()) {
    s = obs::WriteChromeTraceFile(trace_out->second, Spans());
  }
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}
