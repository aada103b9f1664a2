#!/usr/bin/env python3
"""BTrimDB's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a BTrimDB source tree. It builds the engine,
btrim_server and perfbench_driver into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload of BENCHMARK.json with
the parameters perfbench/definition.json gives it, checks the outputs,
prints every metric by name with its unit, and prints as its last line one
JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A traced run also writes
its spans as Chrome trace JSON under <build>/traces/. Every run writes a
full report (bases, sample counts, checks, run conditions) under
<build>/reports/.

Exit status: 0 when every correctness check and validity guard passed,
1 when one failed, 2 on a usage or build error, 3 when the build is one the
benchmark refuses to measure (Debug, sanitizer, lock-order or paranoid
checks).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import report  # noqa: E402
from report import Delta, Ratio, Registry, Timing, median  # noqa: E402

BENCHMARK_FILE = os.path.join(HERE, "..", "BENCHMARK.json")

SETUPS = 3            # set-ups per run; setup_s is their median
DRIVER_TIMEOUT_S = 150


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# --- build ---------------------------------------------------------------------

def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    stamp = os.path.join(build_dir, "configure.cmd")
    steps = []
    previous = open(stamp).read() if os.path.exists(stamp) else None
    if previous != " ".join(configure):
        # A different configuration (or none yet): start from a clean tree.
        if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            shutil.rmtree(build_dir)
            os.makedirs(build_dir)
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, cwd=root, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.close()
                sys.stderr.write(open(log_path).read()[-4000:])
                fail(f"build failed (log: {log_path})")
            if cmd is configure:
                with open(stamp, "w") as f:
                    f.write(" ".join(configure))
    driver = os.path.join(build_dir, "perfbench_driver")
    server = os.path.join(build_dir, "btrimdb", "tools", "btrim_server")
    return driver, server


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def cpu_split():
    """Disjoint halves of the allowed cores (server, client) when there are
    at least 4, so the scheduler is not what gets measured."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4 or not shutil.which("taskset"):
        return None, None
    half = len(cpus) // 2
    return (",".join(map(str, cpus[half:])), ",".join(map(str, cpus[:half])))


def pinned(cpus, cmd):
    return (["taskset", "-c", cpus] + cmd) if cpus else cmd


def run_driver(cmd):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out after {DRIVER_TIMEOUT_S} s", 1)
    if proc.returncode == 3:
        fail(f"refused: {proc.stderr.strip()}", 3)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"driver exited {proc.returncode}", 1)


def vm_hwm_kb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


# --- workloads -----------------------------------------------------------------

def run_tpcc(driver, work_dir, params, args, trace_out):
    out = os.path.join(work_dir, "raw.json")
    data_dir = os.path.join(work_dir, "data")
    cmd = [driver, "tpcc", "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--data-dir", data_dir,
           "--durable", "1" if params["durable"] else "0"]
    for key in ("warehouses", "terminals", "imrs_mb", "cache_frames",
                "warmup_commits", "checkpoint_every"):
        cmd += ["--" + key.replace("_", "-"), str(params[key])]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    # Pinned, the run cannot move between fast and slow core placements.
    cpus = cpu_split()[0] if params["half_the_cores"] else None
    try:
        run_driver(pinned(cpus, cmd))
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    raw = json.load(open(out))
    delta = Delta(Registry(raw["registry_start"]), Registry(raw["registry_end"]))
    pinning = f"cores {cpus}" if cpus else "none"
    return raw, delta, {"pinning": pinning}


class Server:
    """btrim_server as a child process; always stopped and waited for."""

    def __init__(self, server, params, seed, cpus, work_dir, n):
        self.ready = os.path.join(work_dir, f"ready{n}")
        self.metrics = os.path.join(work_dir, f"server_metrics{n}.json")
        self.log = open(os.path.join(work_dir, f"server{n}.log"), "w")
        cmd = pinned(cpus, [
            server, "--port", "0", "--warehouses", "0",
            "--kv-rows", str(params["kv_rows"]),
            "--kv-value-bytes", str(params["value_bytes"]),
            "--imrs-mb", str(params["imrs_mb"]),
            "--lanes", str(params["lanes"]),
            "--max-inflight", str(params["max_inflight"]),
            "--sample-interval-ms", str(params["sample_interval_ms"]),
            "--seed", str(seed), "--tag", "perfbench",
            "--ready-file", self.ready, "--metrics-out", self.metrics])
        t0 = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        while not (os.path.exists(self.ready) and
                   open(self.ready).read().endswith("\n")):
            if self.proc.poll() is not None or time.monotonic() - t0 > 60:
                self.stop()
                fail(f"btrim_server did not become ready (log: {self.log.name})",
                     1)
            time.sleep(0.005)
        self.ready_s = time.monotonic() - t0
        self.port = int(open(self.ready).read())

    def stop(self):
        """SIGTERM and wait; returns the exit status."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


def run_kv(driver, server, work_dir, params, args, trace_out):
    server_cpus, client_cpus = cpu_split()
    ready_s, servers = [], []
    try:
        for n in range(SETUPS):
            if servers:
                servers[-1].stop()
            servers.append(Server(server, params, args.seed, server_cpus,
                                  work_dir, n))
            ready_s.append(servers[-1].ready_s)
        srv = servers[-1]
        out = os.path.join(work_dir, "raw.json")
        cmd = pinned(client_cpus, [
            driver, "kv", "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", out, "--port", str(srv.port),
            "--rate", str(params["rate"]), "--conns", str(params["conns"]),
            "--keys", str(params["kv_rows"]),
            "--value-bytes", str(params["value_bytes"]),
            "--warmup", str(params["warmup_s"])])
        if trace_out:
            cmd += ["--trace-out", trace_out]
        run_driver(cmd)
        rss_kb = vm_hwm_kb(srv.proc.pid)
    finally:
        codes = [s.stop() for s in servers]
    raw = json.load(open(out))
    raw["setup_s"] = [r + params["warmup_s"] for r in ready_s]
    raw["load_s"] = ready_s
    raw["rss_peak_kb"] = rss_kb
    raw["committed_total"] = raw["ok"]
    raw["checks"].append({
        "name": "kv.server_exit_0_on_sigterm", "ok": all(c == 0 for c in codes),
        "detail": f"exit codes {codes}"})

    # Registry deltas between the sampler windows stamped by kMark 1 and 2.
    series = json.load(open(srv.metrics))["series"]
    marks = {s["marker"]: s for s in series if s["marker"] in (1, 2)}
    if 1 not in marks or 2 not in marks:
        fail("server metrics lack the kMark 1/2 sampler windows", 1)
    delta = Delta(Registry(marks[1]["metrics"]), Registry(marks[2]["metrics"]))
    window = [s for s in series if marks[1]["seq"] <= s["seq"] <= marks[2]["seq"]]
    raw["queue_depth_max"] = max(
        Registry(s["metrics"]).value("net.queue_depth") for s in window)
    pinning = (f"server cores {server_cpus}, benchmark cores {client_cpus}"
               if server_cpus else "none (fewer than 4 cores or no taskset)")
    return raw, delta, {"pinning": pinning}


# --- metrics -------------------------------------------------------------------

def end_to_end(raw, params):
    """name -> (value or None, base text), each over the whole measured
    phase."""
    every = Timing([v for t in raw["latency_us"].values() for v in t])

    def timing(q):
        return every.at(q), f"n={every.n}"

    if raw["workload_kind"] == "kv":
        # Replies that arrived inside the phase: a backlog lowers it.
        ok = raw["arrived_ok"]
        ops_base = f"{ok} replies arrived / {raw['measure_s']:.3f} s"
    else:
        ok = raw["ok"]
        ops_base = f"{ok} commits / {raw['measure_s']:.3f} s"
    f = Ratio(raw["failed"], raw["attempted"])
    m = {
        "setup_s": (median(raw["setup_s"]),
                    "median of " + ", ".join(f"{v:.3f}" for v in raw["setup_s"])),
        "ops_s": (ok / raw["measure_s"], ops_base),
        "p50_us": timing(0.5),
        "p75_us": timing(0.75),
        "p90_us": timing(0.9),
        "p99_us": timing(0.99),
        "rss_peak_mb": (raw["rss_peak_kb"] / 1024.0, "VmHWM"),
        "fail_frac": (f.value, f.base()),
    }
    if params.get("durable"):
        m["recovery_s"] = (raw["recovery_s"], "Recover() after the crash")
        d = Ratio(raw["disk_bytes"], raw["committed_total"])
        m["disk_bytes_per_commit"] = (d.value, d.base())
    return m


def per_layer(raw, delta, params, kind, trace):
    """name -> (value or None, base text); None prints as n/a."""
    ops = raw["ok"]
    m = {}

    def ratio(name, num, den):
        r = Ratio(num, den)
        m[name] = (r.value, r.base())

    def per_op(name, num):
        ratio(name, num, ops)

    def timing(name, t, q):
        m[name] = (t.at(q), f"n={t.n}")

    def hist(name, h, q):
        m[name] = (h.at(q), f"n={h.total}")

    if kind == "tpcc":
        for txn, qs in (("new_order", (0.5, 0.99)), ("payment", (0.5, 0.99)),
                        ("delivery", (0.99,)), ("order_status", (0.99,)),
                        ("stock_level", (0.99,))):
            t = Timing(raw["latency_us"][txn])
            for q in qs:
                timing(f"tpcc.{txn}.p{int(q * 100)}_us", t, q)
    m["engine.load_s"] = (median(raw["load_s"]),
                          "median of " + ", ".join(f"{v:.3f}"
                                                   for v in raw["load_s"]))
    ratio("engine.imrs_hit_frac", delta.count("engine.imrs_ops"),
          delta.count("engine.imrs_ops") + delta.count("engine.page_ops"))
    ckpt = raw.get("checkpoint_s", [])
    m["engine.checkpoint_s"] = ((median(ckpt), f"median of {len(ckpt)}")
                                if ckpt else (None, "no checkpoint"))
    m["checkpoint.max_pause_us"] = (delta.gauge("checkpoint.max_pause_us"),
                                    "gauge at end")
    m["checkpoint.snapshot_rows"] = (delta.count("checkpoint.snapshot_rows"),
                                     "delta")
    per_op("locks.wait_us_per_commit", delta.hist("locks.wait_us").sum_us)
    per_op("locks.waits_per_commit", delta.count("locks.waits"))
    ratio("locks.fast_frac", delta.count("locks.fast_grants"),
          delta.count("locks.acquisitions"))
    m["locks.timeouts"] = (delta.count("locks.timeouts"), "delta")
    ratio("txn.aborted_frac", delta.count("txn.aborted"),
          delta.count("txn.committed") + delta.count("txn.aborted"))
    per_op("index.searches_per_op", delta.count("index.searches"))
    ratio("index.olc_restart_frac", delta.count("index.olc_restarts"),
          delta.count("index.searches"))
    ratio("index.pessimistic_frac", delta.count("index.pessimistic_descents"),
          delta.count("index.inserts"))
    per_op("buffer_cache.fixes_per_op", delta.count("buffer_cache.fixes"))
    ratio("buffer_cache.latch_contention_per_fix",
          delta.count("buffer_cache.latch_contention"),
          delta.count("buffer_cache.fixes"))
    ratio("buffer_cache.hit_frac", delta.count("buffer_cache.hits"),
          delta.count("buffer_cache.hits") + delta.count("buffer_cache.misses"))
    per_op("buffer_cache.evictions_per_commit",
           delta.count("buffer_cache.evictions"))
    per_op("buffer_cache.dirty_writes_per_commit",
           delta.count("buffer_cache.dirty_writes"))
    m["imrs_cache.in_use_mb.end"] = (
        delta.gauge("imrs_cache.in_use_bytes") / 2**20, "gauge at end")
    m["rid_map.entries.end"] = (delta.gauge("rid_map.entries"), "gauge at end")
    per_op("gc.versions_freed_per_commit", delta.count("gc.versions_freed"))
    m["gc.work_pending.end"] = (delta.gauge("gc.work_pending"), "gauge at end")
    m["imrs_cache.failed_allocs"] = (delta.count("imrs_cache.failed_allocs"),
                                     "delta")
    per_op("pack.busy_us_per_commit", delta.hist("pack.partition_pack_us").sum_us)
    ratio("pack.useful_frac", delta.count("pack.rows_packed"),
          delta.count("pack.rows_packed") + delta.count("pack.rows_skipped_hot"))
    per_op("pack.bytes_per_commit", delta.count("pack.bytes_packed"))
    per_op("pack.lock_wait_us_per_commit", delta.hist("pack.lock_wait_us").sum_us)
    m["pack.bypass_activations"] = (delta.count("pack.bypass_activations"),
                                    "delta")
    hist("pool.queue_wait_us.p99", delta.hist("pool.queue_wait_us"), 0.99)
    m["pool.tasks_executed"] = (delta.count("pool.tasks_executed"), "delta")
    commit = delta.hist("commit.latency_us")
    hist("commit.latency_us.p50", commit, 0.5)
    hist("commit.latency_us.p99", commit, 0.99)
    ratio("commit.groups_per_batch", delta.count("commit.groups"),
          delta.count("commit.batches"))
    per_op("wal.syncs_per_commit", delta.count("wal.syncs"))
    per_op("wal.bytes_per_commit", delta.count("wal.bytes_appended"))

    if kind == "kv":
        server = delta.hist("net.request_latency_us")
        hist("net.server_us.p50", server, 0.5)
        hist("net.server_us.p99", server, 0.99)
        client = Timing(raw["send_to_reply_us"]).at(0.5)
        server_p50 = m["net.server_us.p50"][0]
        m["net.wire_us.p50"] = (
            None if client is None or server_p50 is None
            else client - server_p50, f"client p50 {client} - server p50")
        m["net.queue_depth.max"] = (raw["queue_depth_max"],
                                    "max over sampler windows")
        m["net.shed"] = (delta.count("net.shed"), "delta")
        timing("gen.late_us.p99", Timing(raw["late_us"]), 0.99)

    if trace:
        if kind == "tpcc":
            traced = Ratio(raw["traced_ops"], raw["traced_s"]).value
            untraced = Ratio(raw["untraced_ops"], raw["untraced_s"]).value
            m["trace.overhead_frac"] = (
                1 - traced / untraced if untraced else None,
                f"traced {traced:.1f} ops/s vs untraced {untraced:.1f} ops/s")
        else:
            t = Timing(raw["traced_us"]).at(0.5)
            u = Timing(raw["untraced_us"]).at(0.5)
            m["trace.overhead_frac"] = (
                t / u - 1 if t is not None and u else None,
                f"traced p50 {t} us vs untraced p50 {u} us")
    return m


def guards(raw, delta, params, kind, build_info, e2e, layers):
    """Validity guards: list of (name, ok, detail)."""
    g = [("optimized build", not build_info["refusal"],
          build_info["refusal"] or build_info["build_type"])]
    if raw.get("invalid"):
        g.append(("warm-up", False, raw["invalid"]))
    for name in ("p50_us", "p75_us"):
        g.append((f"{name} has >= {report.MIN_BEYOND} samples beyond it",
                  e2e[name][0] is not None, e2e[name][1]))
    packed = delta.count("pack.rows_packed")
    if not params.get("durable"):
        steady = build_info["steady_cache_pct"] * params["imrs_mb"] * 2**20
        in_use = delta.gauge("imrs_cache.in_use_bytes")
        g.append(("IMRS fits: Pack relocated no row", packed == 0,
                  f"{packed} rows packed"))
        g.append(("IMRS fits: in-use below the steady threshold",
                  in_use < steady, f"{in_use} < {steady:.0f} B"))
    else:
        heap = raw["disk_bytes"] - raw["log_bytes"]
        cache = params["cache_frames"] * 8192
        g.append(("ILM regime: Pack relocated rows", packed > 0,
                  f"{packed} rows packed"))
        g.append(("buffer cache smaller than the heap", heap > cache,
                  f"heap {heap} B vs cache {cache} B"))
    if kind == "kv":
        late = layers["gen.late_us.p99"][0]
        g.append(("generator kept its schedule",
                  late is not None and late <= params["max_late_p99_us"],
                  f"late p99 {late} us (limit {params['max_late_p99_us']})"))
    return g


def show(value, unit):
    return "n/a" if value is None else f"{report.fmt(value)} {unit}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(root, "src", "engine"))):
        fail("run from the root of a BTrimDB source tree (no src/ here)")
    bench = json.load(open(BENCHMARK_FILE))
    workloads = json.load(open(os.path.join(HERE, "definition.json")))[
        "workloads"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(names)}")
    workload = workloads[args.workload]
    params, kind = workload["params"], workload["kind"]
    exported = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    driver, server = build(root, build_dir)
    info = subprocess.run([driver, "buildinfo"], capture_output=True,
                          text=True, check=True)
    build_info = json.loads(info.stdout)
    if build_info["refusal"]:
        fail(f"refused: {build_info['refusal']}", 3)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(build_dir, "work", f"{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        trace_out = os.path.join(build_dir, "traces", tag + ".json")
    try:
        if kind == "tpcc":
            raw, delta, conditions = run_tpcc(driver, work_dir, params, args,
                                              trace_out)
        else:
            raw, delta, conditions = run_kv(driver, server, work_dir, params,
                                            args, trace_out)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    e2e = end_to_end(raw, params)
    layers = per_layer(raw, delta, params, kind, args.trace)
    layers.update(e2e)
    checks = raw["checks"]
    validity = guards(raw, delta, params, kind, build_info, e2e, layers)
    correct = all(c["ok"] for c in checks) and raw["attempted"] >= 1
    valid = all(ok for _, ok, _ in validity)

    conditions.update({
        "hw_threads": os.cpu_count(), "nproc": len(os.sched_getaffinity(0)),
        "build_type": build_info["build_type"],
        "BTRIM_LOCK_ORDER_CHECKS": build_info["lock_order_checks"],
        "BTRIM_PARANOID_CHECKS": build_info["paranoid_checks"],
        "sanitize": build_info["sanitize"] or "none",
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "durability": ("file, no fsync" if params.get("durable")
                       else "in-memory, no fsync"),
        "commit": git_commit(root),
    })

    print(f"perfbench {args.workload} ({workload['loop']})")
    print("  " + "  ".join(f"{k}={v}" for k, v in conditions.items()))
    print("end-to-end:")
    for name, (value, base) in e2e.items():
        print(f"  {name:<24} {show(value, units[name]):>22}   ({base})")
    if args.trace:
        print("per-layer:")
        for m in bench["per_layer"]:
            value, base = layers.get(m["name"], (None, "does not apply"))
            print(f"  {m['name']:<38} {show(value, m['unit']):>22}   ({base})")
    print("checks:")
    for c in checks:
        print(f"  {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    print("validity:")
    for name, ok, detail in validity:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    if raw["failures"]:
        print("failures: " + json.dumps(raw["failures"]))
    if trace_out:
        print(f"trace: {trace_out} ({raw['spans_recorded']} spans recorded)")

    metrics = {}
    for m in exported:
        value = layers.get(m["name"], (None,))[0]
        metrics[m["name"]] = {"value": 0 if value is None else value,
                              "unit": m["unit"]}
    result = {"correct": bool(correct and valid),
              "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}

    os.makedirs(os.path.join(build_dir, "reports"), exist_ok=True)
    with open(os.path.join(build_dir, "reports", tag + ".json"), "w") as f:
        json.dump({"conditions": conditions, "metrics": layers,
                   "checks": checks, "validity": validity,
                   "failures": raw["failures"], "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
