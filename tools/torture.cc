// Crash-point torture driver.
//
// Enumerates the storage operations of a deterministic workload, then
// replays the workload from scratch for a set of scripted crash points —
// every sync boundary (the durability lines), a stride over the remaining
// write/append operations, and seeded random extras up to --points — and
// after each crash recovers the database and verifies that acknowledged
// commits survive exactly, unacknowledged work resolves atomically, and
// nothing aborted resurfaces (src/testing/torture.h).
//
// Usage:
//   torture [--seed N] [--points N] [--txns N] [--dir PATH]
//           [--failures-file PATH] [--crash-op K] [--overlap]
//
// Every failure line carries (seed, crash_op); replay one with
// --seed N --crash-op K.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/lock_order.h"
#include "common/random.h"
#include "testing/torture.h"

namespace {

struct DriverOptions {
  uint64_t seed = 1;
  int points = 200;
  int txns = 80;
  std::string dir;
  std::string failures_file;
  int64_t crash_op = -1;  // >= 0: replay exactly one crash point
  int pack_workers = 1;
  bool overlap = false;
  bool cold_columnar = false;
  bool dump_trace = false;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--points N] [--txns N] [--dir PATH]\n"
               "          [--failures-file PATH] [--crash-op K]\n"
               "          [--pack-workers N] [--overlap] [--cold-columnar]\n",
               argv0);
  std::exit(2);
}

bool ParseArgs(int argc, char** argv, DriverOptions* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--seed") {
      opt->seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--points") {
      opt->points = std::atoi(next());
    } else if (arg == "--txns") {
      opt->txns = std::atoi(next());
    } else if (arg == "--dir") {
      opt->dir = next();
    } else if (arg == "--failures-file") {
      opt->failures_file = next();
    } else if (arg == "--crash-op") {
      opt->crash_op = std::atoll(next());
    } else if (arg == "--pack-workers") {
      opt->pack_workers = std::atoi(next());
    } else if (arg == "--overlap") {
      opt->overlap = true;
    } else if (arg == "--cold-columnar") {
      opt->cold_columnar = true;
    } else if (arg == "--dump-trace") {
      opt->dump_trace = true;
    } else {
      Usage(argv[0]);
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  DriverOptions opt;
  ParseArgs(argc, argv, &opt);
  if (opt.dir.empty()) {
    opt.dir = std::filesystem::temp_directory_path().string() +
              "/btrim_torture_" + std::to_string(opt.seed);
  }

  btrim::testing::TortureConfig config;
  config.dir = opt.dir;
  config.workload_seed = opt.seed;
  config.num_txns = opt.txns;
  config.pack_workers = opt.pack_workers;
  config.overlapped_checkpoints = opt.overlap;
  config.cold_columnar = opt.cold_columnar;

  // Phase 1: fault-free traced run enumerates the op sequence.
  std::vector<btrim::TraceEntry> trace;
  btrim::Result<uint64_t> counted =
      btrim::testing::CountStorageOps(config, &trace);
  if (!counted.ok()) {
    std::fprintf(stderr, "trace run failed: %s\n",
                 counted.status().ToString().c_str());
    return 1;
  }
  const uint64_t total_ops = *counted;
  std::printf("seed %llu: workload issues %llu storage ops\n",
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(total_ops));
  if (opt.dump_trace) {
    for (uint64_t i = 0; i < trace.size(); ++i) {
      std::printf("op %5llu: %-6s %s\n", static_cast<unsigned long long>(i),
                  btrim::FaultOpName(trace[i].op), trace[i].target.c_str());
    }
  }

  // Phase 2: pick crash points.
  std::set<uint64_t> points;
  if (opt.crash_op >= 0) {
    points.insert(static_cast<uint64_t>(opt.crash_op));
  } else {
    // Every sync, rollover and drop: the durability lines where torn state
    // is most interesting.
    for (uint64_t i = 0; i < trace.size(); ++i) {
      const btrim::FaultOp op = trace[i].op;
      if (op == btrim::FaultOp::kSync || op == btrim::FaultOp::kRollOver ||
          op == btrim::FaultOp::kDrop) {
        points.insert(i);
      }
    }
    // Stride over everything else until the target count is reached, then
    // seeded random extras for the gaps.
    if (total_ops > 0) {
      const uint64_t stride =
          std::max<uint64_t>(1, total_ops / std::max(opt.points, 1));
      for (uint64_t i = 0; i < total_ops &&
                           points.size() < static_cast<size_t>(opt.points);
           i += stride) {
        points.insert(i);
      }
      btrim::Random rng(opt.seed ^ 0xdeadbeefULL);
      while (points.size() < static_cast<size_t>(opt.points) &&
             points.size() < total_ops) {
        points.insert(rng.Uniform(total_ops));
      }
    }
  }

  std::printf("testing %zu crash points\n", points.size());

  std::vector<std::string> failures;
  int64_t acked_total = 0;
  int done = 0;
  for (uint64_t crash_op : points) {
    btrim::testing::TortureStats stats;
    btrim::Status s =
        btrim::testing::RunCrashPoint(config, crash_op, &stats);
    acked_total += stats.txns_acked;
    if (!s.ok()) {
      char line[512];
      std::snprintf(line, sizeof(line), "FAIL seed=%llu crash_op=%llu: %s",
                    static_cast<unsigned long long>(opt.seed),
                    static_cast<unsigned long long>(crash_op),
                    s.ToString().c_str());
      std::printf("%s\n", line);
      failures.emplace_back(line);
    }
    ++done;
    if (done % 50 == 0) {
      std::printf("  ... %d/%zu points, %zu failures\n", done, points.size(),
                  failures.size());
    }
  }

  if (failures.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(opt.dir, ec);
  } else {
    std::printf("keeping data dir for inspection: %s\n", opt.dir.c_str());
  }

  if (!opt.failures_file.empty() && !failures.empty()) {
    std::FILE* f = std::fopen(opt.failures_file.c_str(), "w");
    if (f != nullptr) {
      for (const std::string& line : failures) {
        std::fprintf(f, "%s\n", line.c_str());
      }
      std::fclose(f);
    }
  }

#if defined(BTRIM_LOCK_ORDER_CHECKS)
  // Every lock acquisition across every crash-point run fed the lock-order
  // validator; the acquisition graph must have stayed cycle-free.
  {
    auto* validator = btrim::LockOrderValidator::Global();
    if (validator->ViolationCount() != 0) {
      std::fprintf(stderr, "lock-order violations observed:\n%s\n",
                   validator->Report().c_str());
      failures.emplace_back("lock-order validator reported cycles");
    }
  }
#endif

  std::printf(
      "done: %zu crash points, %lld commits verified across runs, "
      "%zu failures\n",
      points.size(), static_cast<long long>(acked_total), failures.size());
  return failures.empty() ? 0 : 1;
}
