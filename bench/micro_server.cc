// micro_server: over-the-wire throughput and latency through the networked
// front-end (DESIGN.md Sec. 16). Starts an in-process Server on an
// ephemeral loopback port over a fresh in-memory database with a preloaded
// kv table, then drives a get-heavy kv mix from 1..8 client threads (one
// connection each) and reports per-cell throughput and client-observed
// p50/p99 round-trip latency.
//
//   ./build/bench/micro_server [--smoke] [--out FILE]
//     --smoke           shrink to the CI cells {1, 4} threads.
//                       check_regression.py gates the --out JSON:
//                       liveness, zero error replies, zero sheds at this
//                       (low) load, p99 bound, a throughput floor.
//     --out FILE        write the results JSON (schema below) for
//                       tools/check_regression.py check_server
//     --threads-list    comma list overriding the cells (e.g. 1,2,4,8)
//     --ops N           operations per client thread   (default 4000)
//     --keys N          kv keyspace                    (default 20000)
//     --read-pct N      % of ops as Get                (default 80)
//     --lanes N         server worker lanes            (default 4)
//
// JSON: {"hw_threads": H, "results": [{"threads": N, "ops": M, "tps": T,
//        "p50_us": A, "p99_us": B, "sheds": S, "errors": E}]}

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "engine/database.h"
#include "net/client.h"
#include "net/server.h"

using namespace btrim;

namespace {

struct Cell {
  int threads = 0;
  int64_t ops = 0;
  double tps = 0.0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  int64_t sheds = 0;
  int64_t errors = 0;
};

Status LoadKv(Database* db, int64_t rows) {
  TableOptions o;
  o.name = "kv";
  o.schema = Schema({Column::Int64("k"), Column::String("v", 256)});
  o.primary_key = {0};
  Result<Table*> table = db->CreateTable(std::move(o));
  if (!table.ok()) return table.status();
  const std::string value(64, 'v');
  constexpr int64_t kBatch = 256;
  for (int64_t base = 0; base < rows; base += kBatch) {
    std::unique_ptr<Transaction> txn = db->Begin();
    const int64_t end = std::min(rows, base + kBatch);
    for (int64_t k = base; k < end; ++k) {
      RecordBuilder builder(&(*table)->schema());
      builder.AddInt64(k).AddString(value);
      Status s = db->Insert(txn.get(), *table, builder.Finish());
      if (!s.ok()) {
        (void)db->Abort(txn.get());
        return s;
      }
    }
    BTRIM_RETURN_IF_ERROR(db->Commit(txn.get()));
  }
  return Status::OK();
}

void Worker(net::Client* client, int64_t ops, int64_t keys, int read_pct,
            uint64_t seed, std::vector<int64_t>* lat_us, int64_t* errors) {
  std::mt19937_64 rnd(seed);
  const std::string value(64, 'w');
  lat_us->reserve(static_cast<size_t>(ops));
  for (int64_t i = 0; i < ops; ++i) {
    const int64_t key = static_cast<int64_t>(rnd() % keys);
    WallTimer timer;
    Result<net::Response> resp =
        static_cast<int>(rnd() % 100) < read_pct
            ? client->Get("kv", key)
            : client->Put("kv", key, value);
    const int64_t us = timer.ElapsedMicros();
    if (!resp.ok() ||
        (!resp->ok() && resp->code != Status::Code::kNotFound)) {
      ++*errors;
      continue;
    }
    lat_us->push_back(us);
  }
}

int64_t Percentile(std::vector<int64_t>* v, double p) {
  if (v->empty()) return 0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(v->size() - 1));
  std::nth_element(v->begin(), v->begin() + idx, v->end());
  return (*v)[idx];
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  std::string threads_list;
  int64_t ops_per_thread = 4000;
  int64_t keys = 20000;
  int read_pct = 80;
  int lanes = 4;
  for (int i = 1; i < argc; ++i) {
    auto int_arg = [&](const char* name, auto* out) {
      if (strcmp(argv[i], name) == 0 && i + 1 < argc) {
        *out = static_cast<std::remove_pointer_t<decltype(out)>>(
            atoll(argv[++i]));
        return true;
      }
      return false;
    };
    if (strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    if (strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
      continue;
    }
    if (strcmp(argv[i], "--threads-list") == 0 && i + 1 < argc) {
      threads_list = argv[++i];
      continue;
    }
    if (int_arg("--ops", &ops_per_thread)) continue;
    if (int_arg("--keys", &keys)) continue;
    if (int_arg("--read-pct", &read_pct)) continue;
    if (int_arg("--lanes", &lanes)) continue;
    fprintf(stderr, "unknown option: %s\n", argv[i]);
    return 2;
  }
  if (smoke) {
    ops_per_thread = std::min<int64_t>(ops_per_thread, 1500);
    keys = std::min<int64_t>(keys, 5000);
  }

  std::vector<int> cells;
  if (!threads_list.empty()) {
    for (const char* p = threads_list.c_str(); *p != '\0';) {
      cells.push_back(atoi(p));
      while (*p != '\0' && *p != ',') ++p;
      if (*p == ',') ++p;
    }
  } else if (smoke) {
    cells = {1, 4};
  } else {
    cells = {1, 2, 4, 8};
  }

  DatabaseOptions options;
  options.buffer_cache_frames = 8192;
  options.imrs_cache_bytes = 32u << 20;
  options.lock_timeout_ms = 50;
  Result<std::unique_ptr<Database>> opened = Database::Open(options);
  if (!opened.ok()) {
    fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Database> db = std::move(*opened);
  Status kv = LoadKv(db.get(), keys);
  if (!kv.ok()) {
    fprintf(stderr, "kv load: %s\n", kv.ToString().c_str());
    return 1;
  }
  db->StartBackground();

  net::ServerOptions sopt;
  sopt.port = 0;
  sopt.worker_lanes = lanes;
  Result<std::unique_ptr<net::Server>> started =
      net::Server::Start(db.get(), sopt);
  if (!started.ok()) {
    fprintf(stderr, "server: %s\n", started.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<net::Server> server = std::move(*started);
  printf("micro_server: port %d, %lld ops/thread, %lld keys, lanes=%d\n",
         server->port(), static_cast<long long>(ops_per_thread),
         static_cast<long long>(keys), lanes);

  std::vector<Cell> results;
  for (const int threads : cells) {
    std::vector<std::unique_ptr<net::Client>> clients;
    for (int t = 0; t < threads; ++t) {
      Result<std::unique_ptr<net::Client>> c =
          net::Client::Connect("127.0.0.1", server->port(), "bench");
      if (!c.ok()) {
        fprintf(stderr, "connect: %s\n", c.status().ToString().c_str());
        return 1;
      }
      clients.push_back(std::move(*c));
    }
    const int64_t sheds_before = server->sheds();
    std::vector<std::vector<int64_t>> lat(threads);
    std::vector<int64_t> errors(threads, 0);
    WallTimer timer;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        Worker(clients[t].get(), ops_per_thread, keys, read_pct,
               0x5eed + 31u * t, &lat[t], &errors[t]);
      });
    }
    for (std::thread& th : pool) th.join();
    const double elapsed = timer.ElapsedSeconds();

    Cell cell;
    cell.threads = threads;
    std::vector<int64_t> all;
    for (int t = 0; t < threads; ++t) {
      all.insert(all.end(), lat[t].begin(), lat[t].end());
      cell.errors += errors[t];
    }
    cell.ops = static_cast<int64_t>(all.size());
    cell.tps = elapsed > 0 ? static_cast<double>(cell.ops) / elapsed : 0.0;
    cell.p50_us = Percentile(&all, 0.50);
    cell.p99_us = Percentile(&all, 0.99);
    cell.sheds = server->sheds() - sheds_before;
    results.push_back(cell);
    printf("  threads=%d  ops=%lld  tps=%.0f  p50=%lldus  p99=%lldus  "
           "sheds=%lld  errors=%lld\n",
           cell.threads, static_cast<long long>(cell.ops), cell.tps,
           static_cast<long long>(cell.p50_us),
           static_cast<long long>(cell.p99_us),
           static_cast<long long>(cell.sheds),
           static_cast<long long>(cell.errors));
  }

  server->Stop();
  server.reset();
  db->StopBackground();

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (!out_path.empty()) {
    FILE* f = fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    fprintf(f, "{\"hw_threads\": %d, \"results\": [", hw);
    for (size_t i = 0; i < results.size(); ++i) {
      const Cell& c = results[i];
      fprintf(f,
              "%s\n  {\"threads\": %d, \"ops\": %lld, \"tps\": %.1f, "
              "\"p50_us\": %lld, \"p99_us\": %lld, \"sheds\": %lld, "
              "\"errors\": %lld}",
              i == 0 ? "" : ",", c.threads, static_cast<long long>(c.ops),
              c.tps, static_cast<long long>(c.p50_us),
              static_cast<long long>(c.p99_us),
              static_cast<long long>(c.sheds),
              static_cast<long long>(c.errors));
    }
    fprintf(f, "\n]}\n");
    fclose(f);
    printf("results written to %s\n", out_path.c_str());
  }
  return 0;
}
