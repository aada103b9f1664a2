#!/usr/bin/env python3
"""CI perf-regression gate over micro_commit/micro_pack output and the
metrics export.

Compares a fresh `micro_commit --out` JSON against the checked-in baseline
(bench/BENCH_micro_commit.json) using machine-portable invariants only —
absolute throughput depends on the runner, so the gate checks *shape*:

  1. fsyncs/commit must not regress: for every (policy, workers) cell in
     both files, current <= baseline * (1 + threshold) + epsilon. This is
     the core group-commit property (sync amortization) and is hardware
     independent.
  2. group-commit speedup must hold: within the *current* run,
     tps(group_commit) / tps(sync_per_commit) at the same worker count
     must not drop more than `threshold` below the same ratio in the
     baseline. Normalizing by the same-run sync cell cancels machine speed.
  3. group_commit at >= 4 workers must batch at all (fsyncs/commit < 1.0).
  4. Optionally (--metrics), a tpcc_cli/bench metrics export must cover the
     required metric names — every counter the stats report prints is
     exported.
  5. Optionally (--pack-current/--pack-baseline), a `micro_pack --smoke
     --out` JSON is gated the same way: within the current run 4-worker
     pack throughput must be >= 2x 1-worker for every IMRS size (the
     within-run ratio cancels machine speed, and the device sleeps are
     simulated so the workload is latency-bound on any runner), and
     packed bytes/cycle — deterministic by construction — must not
     regress against the checked-in bench/BENCH_micro_pack.json.
  6. Optionally (--index-current/--index-baseline), a `micro_index --out`
     JSON is gated on the OLC read-scaling property: point_read tps at 8
     threads must be >= 3x the 1-thread cell, and TPC-C tps at 8 workers
     must be >= the 1-worker cell. Index reads are CPU-bound (not
     simulated-latency-bound like pack), so these ratios only exist where
     the hardware can express them: the floors scale with the hw_threads
     field the bench records (>= 4 hw threads -> full floors; 2-3 ->
     1.4x reads only; 1 -> liveness and shape checks only; every floor
     relaxed or skipped this way prints UNVERIFIED and is listed in the
     summary, never reported as a pass). The
     single-threaded insert cell's splits-per-insert — deterministic by
     construction — must also stay within threshold of the checked-in
     bench/BENCH_micro_index.json.
  7. Optionally (--server-current/--server-baseline), a `micro_server
     --out` JSON is gated on liveness, error-freedom, zero admission sheds
     at low load, a liveness-grade p99 ceiling, a conservative absolute
     throughput floor per cell (200 tps), and within-run concurrency
     sanity (4-thread throughput >= 0.5x 1-thread). With --server-metrics,
     a btrim_server metrics export must cover every name in the manifest's
     "server_required" (net.*) list.

This script is the only home of these floors: the benches' --smoke runs
only shrink the workload.

Exit 0 when green; exit 1 with one line per violation otherwise.
"""

import argparse
import json
import os
import sys

# The required-metric names live in tools/required_metrics.json next to
# this script: "required" covers every registry name FormatDatabaseStats()
# reads, plus the checkpoint, cold-columnar, partition, pool and tpcc
# driver surfaces (100% of the enumerated list); "known_optional" is the
# rest of the exported universe. A metrics export containing a name in neither
# list fails the drift lint — new metrics must be recorded in the manifest.
MANIFEST_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "required_metrics.json")


# Gates whose full floor this run's hardware could not exercise. Each is
# reported as UNVERIFIED (never as a pass) and listed again in the summary;
# a relaxed floor that is still enforced keeps failing the run as before.
UNVERIFIED = []


def unverified(gate, need, hw):
    line = f"{gate} needs >= {need} hw threads, run had {hw}"
    UNVERIFIED.append(line)
    print(f"UNVERIFIED: {line}")


def load_manifest(errors):
    """Loads and lints the metric-name manifest. Returns (required,
    known_optional, server_required) as lists; appends lint violations to
    `errors`. `server_required` is the net.* surface a btrim_server export
    must cover; it is disjoint from the other two because pre-server
    workloads (tpcc_cli, the benches) never register net.* metrics."""
    try:
        with open(MANIFEST_PATH) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as e:
        errors.append(f"metric manifest {MANIFEST_PATH}: unreadable ({e})")
        return [], [], []
    out = []
    for key in ("required", "known_optional", "server_required"):
        names = manifest.get(key)
        if (not isinstance(names, list)
                or not all(isinstance(n, str) for n in names)):
            errors.append(
                f"metric manifest: '{key}' must be a list of strings")
            names = []
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            errors.append(f"metric manifest: duplicate names in '{key}': "
                          f"{', '.join(dupes)}")
        if names != sorted(names):
            errors.append(f"metric manifest: '{key}' must be sorted")
        out.append(names)
    for a, b in (("required", "known_optional"),
                 ("required", "server_required"),
                 ("known_optional", "server_required")):
        overlap = sorted(set(manifest.get(a) or []) &
                         set(manifest.get(b) or []))
        if overlap:
            errors.append(f"metric manifest: names in both '{a}' and "
                          f"'{b}': {', '.join(overlap)}")
    return out[0], out[1], out[2]

FSYNC_EPSILON = 0.05  # absolute slack for near-zero fsyncs/commit cells


def cells_by_key(doc):
    return {(c["policy"], c["workers"]): c for c in doc["results"]}


def check_bench(current, baseline, threshold, errors):
    cur = cells_by_key(current)
    base = cells_by_key(baseline)
    shared = sorted(set(cur) & set(base))
    if not shared:
        errors.append("no (policy, workers) cells shared with the baseline")
        return

    for key in shared:
        c, b = cur[key], base[key]
        limit = b["fsyncs_per_commit"] * (1.0 + threshold) + FSYNC_EPSILON
        if c["fsyncs_per_commit"] > limit:
            errors.append(
                f"{key}: fsyncs/commit regressed "
                f"{b['fsyncs_per_commit']:.3f} -> {c['fsyncs_per_commit']:.3f} "
                f"(limit {limit:.3f})")

    for policy, workers in shared:
        # The speedup property only exists where batching can happen; at 1-2
        # workers the group/sync ratio hovers around 1.0 and is pure noise.
        if policy != "group_commit" or workers < 4:
            continue
        sync_key = ("sync_per_commit", workers)
        if sync_key not in cur or sync_key not in base:
            continue
        if cur[sync_key]["tps"] <= 0 or base[sync_key]["tps"] <= 0:
            continue
        cur_ratio = cur[(policy, workers)]["tps"] / cur[sync_key]["tps"]
        base_ratio = base[(policy, workers)]["tps"] / base[sync_key]["tps"]
        if base_ratio > 0 and cur_ratio < base_ratio * (1.0 - threshold):
            errors.append(
                f"group/sync throughput ratio at {workers} workers dropped "
                f"{base_ratio:.2f} -> {cur_ratio:.2f} "
                f"(> {threshold:.0%} regression)")

    for (policy, workers), c in cur.items():
        if policy == "group_commit" and workers >= 4:
            if c["fsyncs_per_commit"] >= 1.0:
                errors.append(
                    f"group_commit at {workers} workers no longer batches: "
                    f"{c['fsyncs_per_commit']:.3f} fsyncs/commit")


PACK_SCALING_FLOOR = 2.0  # 4-worker / 1-worker pack throughput


def check_pack(current, baseline, threshold, errors):
    def by_key(doc):
        return {(c["imrs_mb"], c["workers"]): c for c in doc["results"]}

    cur = by_key(current)
    base = by_key(baseline)

    # Gate 1: within-run scaling. Every IMRS size that has both a 1- and a
    # 4-worker cell must show the parallel pipeline actually overlapping
    # its device waits.
    sizes = sorted({mb for (mb, _) in cur})
    gated = 0
    for mb in sizes:
        one = cur.get((mb, 1))
        four = cur.get((mb, 4))
        if one is None or four is None:
            continue
        gated += 1
        if one["rows_packed"] <= 0 or four["rows_packed"] <= 0:
            errors.append(f"micro_pack imrs_mb={mb}: a cell packed no rows")
            continue
        if one["mb_per_s"] <= 0:
            errors.append(f"micro_pack imrs_mb={mb}: 1-worker throughput is 0")
            continue
        ratio = four["mb_per_s"] / one["mb_per_s"]
        if ratio < PACK_SCALING_FLOOR:
            errors.append(
                f"micro_pack imrs_mb={mb}: 4-worker pack throughput is only "
                f"{ratio:.2f}x 1-worker (floor {PACK_SCALING_FLOOR:.1f}x)")
    if gated == 0:
        errors.append("micro_pack: no imrs_mb size has both 1- and 4-worker "
                      "cells to gate")

    # Gate 2: packed bytes/cycle vs the checked-in baseline. The drain is
    # deterministic (same rows, same budgets) so this is a tight check:
    # shrinkage means cycles suddenly move less data per unit of work.
    for key in sorted(set(cur) & set(base)):
        c, b = cur[key], base[key]
        if b["bytes_per_cycle"] <= 0:
            continue
        floor = b["bytes_per_cycle"] * (1.0 - threshold)
        if c["bytes_per_cycle"] < floor:
            errors.append(
                f"micro_pack {key}: bytes/cycle regressed "
                f"{b['bytes_per_cycle']:.0f} -> {c['bytes_per_cycle']:.0f} "
                f"(floor {floor:.0f})")


# Point-read throughput ratio, 8 threads over 1, and the TPC-C 8w/1w
# floor.
INDEX_READ_SCALING_FLOOR = 3.0   # enforced when hw_threads >= 4
INDEX_READ_SCALING_FLOOR_2T = 1.4  # enforced when hw_threads in [2, 3]
TPCC_SCALING_FLOOR = 1.0         # enforced when hw_threads >= 4


def check_index(current, baseline, threshold, errors):
    def by_key(doc):
        return {(c["mode"], c["threads"]): c for c in doc["results"]}

    cur = by_key(current)
    base = by_key(baseline)
    hw = int(current.get("hw_threads", 1))

    # Gate 1: liveness. Every cell must have done work at a nonzero rate.
    for key, c in sorted(cur.items()):
        if c["ops"] <= 0 or c["tps"] <= 0:
            errors.append(f"micro_index {key}: cell did no work")

    # Gate 2: read scaling, where the hardware can express it. Shared-latch
    # descents are the whole point of the OLC rewrite; a return to a
    # serializing tree lock shows up as a flat ratio on any multi-core box.
    one = cur.get(("point_read", 1))
    eight = cur.get(("point_read", 8))
    if one is None or eight is None:
        errors.append("micro_index: missing point_read 1- or 8-thread cell")
    elif one["tps"] > 0:
        floor = (INDEX_READ_SCALING_FLOOR if hw >= 4 else
                 INDEX_READ_SCALING_FLOOR_2T if hw >= 2 else 0.0)
        ratio = eight["tps"] / one["tps"]
        if floor > 0 and ratio < floor:
            errors.append(
                f"micro_index: point-read throughput at 8 threads is only "
                f"{ratio:.2f}x 1-thread (floor {floor:.1f}x on "
                f"{hw} hw threads)")
        if hw >= 4:
            print(f"micro_index: point-read 8t/1t = {ratio:.2f}x "
                  f"(floor {floor:.1f}x on {hw} hw threads)")
        else:
            print(f"micro_index: point-read 8t/1t = {ratio:.2f}x")
            unverified("micro_index point-read scaling "
                       f"(floor {INDEX_READ_SCALING_FLOOR:.1f}x)", 4, hw)

    # Gate 3: the TPC-C floor — eight terminals must not run slower than
    # one through the full engine (locks, WAL, index) on real parallelism.
    t1 = cur.get(("tpcc", 1))
    t8 = cur.get(("tpcc", 8))
    if t1 is not None and t8 is not None and t1["tps"] > 0:
        if hw < 4:
            unverified("micro_index TPC-C scaling "
                       f"(floor {TPCC_SCALING_FLOOR:.1f}x)", 4, hw)
        else:
            ratio = t8["tps"] / t1["tps"]
            if ratio < TPCC_SCALING_FLOOR:
                errors.append(
                    f"micro_index: TPC-C at 8 workers is {ratio:.2f}x "
                    f"1-worker (floor {TPCC_SCALING_FLOOR:.1f}x)")

    # Gate 4: single-threaded splits-per-insert vs the checked-in baseline.
    # The 1-thread insert cell is deterministic (same keys, same order), so
    # structural drift — e.g. splits suddenly cascading — is a tight check.
    key = ("insert", 1)
    if key in cur and key in base:
        c, b = cur[key], base[key]
        if c["ops"] > 0 and b["ops"] > 0 and b["splits"] > 0:
            cur_rate = c["splits"] / c["ops"]
            base_rate = b["splits"] / b["ops"]
            if cur_rate > base_rate * (1.0 + threshold):
                errors.append(
                    f"micro_index: splits/insert regressed "
                    f"{base_rate:.5f} -> {cur_rate:.5f} "
                    f"(> {threshold:.0%} above baseline)")


# The overlapped checkpoint's foreground stall budget: the begin barrier
# may cost at most this fraction of the full checkpoint duration (the
# quiescent design it replaced stalled commits for the whole duration, so
# this ratio is literally "new pause / old pause").
CHECKPOINT_PAUSE_FRACTION = 0.10
CHECKPOINT_PAUSE_EPSILON_US = 500   # clock-granularity slack on fast runs
RECOVERY_SCALING_FLOOR = 2.0        # 1w/4w replay time, hw_threads >= 4
RECOVERY_SCALING_FLOOR_2T = 1.2     # enforced when hw_threads in [2, 3]


def check_recovery(current, baseline, errors):
    hw = int(current.get("hw_threads", 1))
    ckpt = current.get("checkpoint", {})
    cells = {c["workers"]: c for c in current.get("results", [])}

    # Gate 1: pause budget. Hardware-independent by construction — both
    # sides of the ratio come from the same run on the same machine.
    pause = ckpt.get("pause_us", -1)
    total = ckpt.get("total_us", 0)
    if pause < 0 or total <= 0:
        errors.append("micro_recovery: checkpoint pause/total metrics missing")
    elif pause > total * CHECKPOINT_PAUSE_FRACTION + CHECKPOINT_PAUSE_EPSILON_US:
        errors.append(
            f"micro_recovery: begin-barrier pause {pause}us exceeds "
            f"{CHECKPOINT_PAUSE_FRACTION:.0%} of checkpoint duration "
            f"{total}us")
    else:
        print(f"micro_recovery: pause/total = {pause / total:.2%} "
              f"(budget {CHECKPOINT_PAUSE_FRACTION:.0%})")

    # Gate 2: liveness + within-run determinism. Every worker count replays
    # the same logs, so the recovered row count and restored commit clock
    # must be byte-identical across cells. (They are NOT compared against
    # the baseline: the history includes rows from free-running writer
    # threads, so absolute counts vary run to run by design.)
    anchor = None
    for workers in sorted(cells):
        c = cells[workers]
        if c["imrs_rows"] <= 0 or c["recover_s"] <= 0:
            errors.append(f"micro_recovery workers={workers}: cell did no work")
            continue
        if anchor is None:
            anchor = c
        elif (c["imrs_rows"] != anchor["imrs_rows"]
              or c.get("clock_now") != anchor.get("clock_now")):
            errors.append(
                f"micro_recovery: workers={workers} recovered "
                f"{c['imrs_rows']} rows / clock {c.get('clock_now')} but "
                f"workers={anchor['workers']} recovered "
                f"{anchor['imrs_rows']} / {anchor.get('clock_now')} — "
                f"parallel replay is nondeterministic")

    # Gate 3: replay scaling, where the hardware can express it (same
    # hw-scaled floor scheme as micro_index; replay is CPU-bound).
    one = cells.get(1)
    four = cells.get(4)
    if one is None or four is None:
        errors.append("micro_recovery: missing 1- or 4-worker recovery cell")
    elif one["recover_s"] > 0 and four["recover_s"] > 0:
        floor = (RECOVERY_SCALING_FLOOR if hw >= 4 else
                 RECOVERY_SCALING_FLOOR_2T if hw >= 2 else 0.0)
        ratio = one["recover_s"] / four["recover_s"]
        if floor > 0 and ratio < floor:
            errors.append(
                f"micro_recovery: 4-worker replay is only {ratio:.2f}x "
                f"serial (floor {floor:.1f}x on {hw} hw threads)")
        if hw >= 4:
            print(f"micro_recovery: replay 4w speedup = {ratio:.2f}x "
                  f"(floor {floor:.1f}x on {hw} hw threads)")
        else:
            print(f"micro_recovery: replay 4w speedup = {ratio:.2f}x")
            unverified("micro_recovery replay scaling "
                       f"(floor {RECOVERY_SCALING_FLOOR:.1f}x)", 4, hw)

    # The baseline is a schema anchor only (absolute times and row counts
    # are machine- and run-specific): its presence must match this format.
    if baseline.get("results") is not None:
        for field in ("checkpoint", "hw_threads", "results"):
            if field not in baseline:
                errors.append(
                    f"micro_recovery: baseline missing '{field}' — "
                    f"regenerate bench/BENCH_micro_recovery.json")


# HTAP gates over micro_htap --out JSON.
HTAP_COMPRESSION_FLOOR = 1.1    # cold bytes raw / compressed
HTAP_DIP_FLOOR = 0.3            # mixed/alone OLTP tpm, hw_threads >= 4
HTAP_DIP_FLOOR_1T = 0.2         # mixed/alone OLTP tpm, hw_threads < 4


def check_htap(current, baseline, threshold, errors):
    hw = int(current.get("hw_threads", 1))
    cold = current.get("cold", {})
    proj = current.get("projection", {})
    oltp = current.get("oltp", {})

    # Gate 1: Pack landed columnar data and it compressed. The ratio is
    # workload-determined (same tables, same generators), so it is also
    # compared against the checked-in baseline within threshold.
    if cold.get("rows", 0) <= 0 or cold.get("segments", 0) <= 0:
        errors.append(f"micro_htap: no cold columnar data "
                      f"(rows={cold.get('rows')} "
                      f"segments={cold.get('segments')})")
    ratio = cold.get("compression_ratio", 0.0)
    if ratio < HTAP_COMPRESSION_FLOOR:
        errors.append(
            f"micro_htap: compression ratio {ratio:.2f} below floor "
            f"{HTAP_COMPRESSION_FLOOR:.2f}")
    base_ratio = baseline.get("cold", {}).get("compression_ratio", 0.0)
    if base_ratio > 0 and ratio < base_ratio * (1.0 - threshold):
        errors.append(
            f"micro_htap: compression ratio regressed "
            f"{base_ratio:.2f} -> {ratio:.2f} "
            f"(> {threshold:.0%} below baseline)")

    # Gate 2: projection pushdown scans strictly fewer cold bytes than the
    # full-row scan. Hardware-independent: both sides come from the same
    # quiesced database.
    full = proj.get("full_bytes_scanned_cold", 0)
    projected = proj.get("projected_bytes_scanned_cold", 0)
    if projected <= 0 or full <= 0 or projected >= full:
        errors.append(
            f"micro_htap: projected scan ({projected}B) not cheaper than "
            f"full-row scan ({full}B)")
    else:
        print(f"micro_htap: projection scans {projected}B of {full}B cold "
              f"({projected / full:.0%}); compression {ratio:.2f}x")

    # Gate 3: the scanner made progress and OLTP kept a bounded fraction of
    # its standalone throughput under concurrent scans (within-run ratio,
    # hw-scaled floor as elsewhere).
    if oltp.get("scans_during_mixed", 0) < 1:
        errors.append("micro_htap: no query-suite pass finished during the "
                      "mixed phase")
    dip = oltp.get("dip_ratio", 0.0)
    floor = HTAP_DIP_FLOOR if hw >= 4 else HTAP_DIP_FLOOR_1T
    if dip < floor:
        errors.append(
            f"micro_htap: OLTP under concurrent scans kept only "
            f"{dip:.0%} of alone throughput (floor {floor:.0%} on "
            f"{hw} hw threads)")
    elif hw >= 4:
        print(f"micro_htap: OLTP kept {dip:.0%} under scans "
              f"(floor {floor:.0%} on {hw} hw threads)")
    else:
        print(f"micro_htap: OLTP kept {dip:.0%} under scans")
        unverified(f"micro_htap OLTP dip (floor {HTAP_DIP_FLOOR:.0%})", 4, hw)


# Gates over micro_server --out JSON. The floors are deliberately
# machine-portable: loopback RTT and runner core count dominate absolute
# numbers, so the gate checks liveness, error-freedom, the zero-shed
# property at low load, a liveness-grade p99 ceiling, a throughput floor
# far below any working machine, and that concurrency does not collapse
# throughput within the same run.
SERVER_P99_CEILING_US = 2_000_000
SERVER_TPS_FLOOR = 200.0
SERVER_CONCURRENCY_COLLAPSE_FLOOR = 0.5  # tps(4t) / tps(1t)


def check_server(current, baseline, errors):
    cells = {c["threads"]: c for c in current.get("results", [])}
    if not cells:
        errors.append("micro_server: no result cells")
        return

    # Gate 1: liveness + error-freedom + zero sheds + p99 ceiling, per cell.
    for threads in sorted(cells):
        c = cells[threads]
        if c["ops"] <= 0 or c["tps"] <= 0:
            errors.append(f"micro_server threads={threads}: cell did no work")
            continue
        if c["errors"] > 0:
            errors.append(f"micro_server threads={threads}: "
                          f"{c['errors']} error replies")
        if c["sheds"] > 0:
            errors.append(f"micro_server threads={threads}: {c['sheds']} "
                          f"requests shed at low load")
        if c["p99_us"] > SERVER_P99_CEILING_US:
            errors.append(f"micro_server threads={threads}: p99 "
                          f"{c['p99_us']}us above {SERVER_P99_CEILING_US}us")
        if c["tps"] < SERVER_TPS_FLOOR:
            errors.append(f"SMOKE FAIL: threads={threads} tps {c['tps']:.0f} "
                          f"below floor {SERVER_TPS_FLOOR:.0f}")

    # Gate 2: within-run concurrency sanity. Four client threads must keep
    # at least half of single-client throughput — a collapse here means the
    # lanes serialize (e.g. a lock held across engine calls).
    one = cells.get(1)
    four = cells.get(4)
    if one is None or four is None:
        errors.append("micro_server: missing 1- or 4-thread cell")
    elif one["tps"] > 0:
        ratio = four["tps"] / one["tps"]
        if ratio < SERVER_CONCURRENCY_COLLAPSE_FLOOR:
            errors.append(
                f"micro_server: 4-thread throughput is only {ratio:.2f}x "
                f"1-thread (floor {SERVER_CONCURRENCY_COLLAPSE_FLOOR:.1f}x)")
        else:
            print(f"micro_server: 4t/1t throughput = {ratio:.2f}x "
                  f"(floor {SERVER_CONCURRENCY_COLLAPSE_FLOOR:.1f}x)")

    # The baseline is a schema anchor (absolute tps is machine-specific):
    # its shape must match this format so drift is caught at review time.
    if baseline:
        if "hw_threads" not in baseline or "results" not in baseline:
            errors.append("micro_server: baseline missing 'hw_threads' or "
                          "'results' — regenerate "
                          "bench/BENCH_micro_server.json")
        else:
            fields = {"threads", "ops", "tps", "p50_us", "p99_us", "sheds",
                      "errors"}
            for cell in baseline["results"]:
                missing = sorted(fields - set(cell))
                if missing:
                    errors.append(
                        f"micro_server: baseline cell missing fields "
                        f"{', '.join(missing)} — regenerate "
                        f"bench/BENCH_micro_server.json")
                    break


def check_metrics_coverage(metrics_doc, errors):
    required, known_optional, server_required = load_manifest(errors)
    names = {m["name"] for m in metrics_doc["metrics"]}
    missing = [n for n in required if n not in names]
    covered = len(required) - len(missing)
    print(f"metrics coverage: {covered}/{len(required)} required "
          f"names present ({len(names)} exported)")
    for name in missing:
        errors.append(f"required metric missing from export: {name}")
    # Drift lint: every exported name must be recorded in the manifest, so
    # adding a metric without updating tools/required_metrics.json fails.
    # (server_required counts as known here: a combined export from a
    # server run legitimately carries net.* names.)
    known = set(required) | set(known_optional) | set(server_required)
    for name in sorted(names - known):
        errors.append(f"metric exported but absent from "
                      f"tools/required_metrics.json (manifest drift): {name}")


def check_server_metrics(metrics_doc, errors):
    """Coverage gate for a btrim_server --metrics-out export: every
    server_required (net.*) name present, plus the same drift lint. The
    tpcc.* driver names from the 'required' list are NOT expected here —
    the server has no in-process TpccDriver."""
    required, known_optional, server_required = load_manifest(errors)
    names = {m["name"] for m in metrics_doc["metrics"]}
    missing = [n for n in server_required if n not in names]
    covered = len(server_required) - len(missing)
    print(f"server metrics coverage: {covered}/{len(server_required)} "
          f"net.* names present ({len(names)} exported)")
    for name in missing:
        errors.append(f"server metric missing from export: {name}")
    known = set(required) | set(known_optional) | set(server_required)
    for name in sorted(names - known):
        errors.append(f"metric exported but absent from "
                      f"tools/required_metrics.json (manifest drift): {name}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current",
                        help="micro_commit --out JSON from this run")
    parser.add_argument("--baseline",
                        help="checked-in bench/BENCH_micro_commit.json")
    parser.add_argument("--metrics",
                        help="optional metrics export (tpcc_cli --metrics-out)"
                             " to validate coverage")
    parser.add_argument("--pack-current",
                        help="micro_pack --smoke --out JSON from this run")
    parser.add_argument("--pack-baseline",
                        help="checked-in bench/BENCH_micro_pack.json")
    parser.add_argument("--index-current",
                        help="micro_index --out JSON from this run")
    parser.add_argument("--index-baseline",
                        help="checked-in bench/BENCH_micro_index.json")
    parser.add_argument("--recovery-current",
                        help="micro_recovery --out JSON from this run")
    parser.add_argument("--recovery-baseline",
                        help="checked-in bench/BENCH_micro_recovery.json")
    parser.add_argument("--htap-current",
                        help="micro_htap --out JSON from this run")
    parser.add_argument("--htap-baseline",
                        help="checked-in bench/BENCH_micro_htap.json")
    parser.add_argument("--server-current",
                        help="micro_server --out JSON from this run")
    parser.add_argument("--server-baseline",
                        help="checked-in bench/BENCH_micro_server.json")
    parser.add_argument("--server-metrics",
                        help="btrim_server --metrics-out export to validate "
                             "net.* coverage")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression tolerance (default 0.25)")
    args = parser.parse_args()

    if not (args.current or args.pack_current or args.index_current
            or args.recovery_current or args.htap_current
            or args.server_current or args.server_metrics or args.metrics):
        parser.error("nothing to check: pass --current, --pack-current, "
                     "--index-current, --recovery-current, --htap-current, "
                     "--server-current, --server-metrics, and/or --metrics")

    errors = []
    if args.current:
        if not args.baseline:
            parser.error("--current requires --baseline")
        with open(args.current) as f:
            current = json.load(f)
        with open(args.baseline) as f:
            baseline = json.load(f)
        check_bench(current, baseline, args.threshold, errors)

    if args.pack_current:
        with open(args.pack_current) as f:
            pack_current = json.load(f)
        pack_baseline = {"results": []}
        if args.pack_baseline:
            with open(args.pack_baseline) as f:
                pack_baseline = json.load(f)
        check_pack(pack_current, pack_baseline, args.threshold, errors)

    if args.index_current:
        with open(args.index_current) as f:
            index_current = json.load(f)
        index_baseline = {"results": []}
        if args.index_baseline:
            with open(args.index_baseline) as f:
                index_baseline = json.load(f)
        check_index(index_current, index_baseline, args.threshold, errors)

    if args.recovery_current:
        with open(args.recovery_current) as f:
            recovery_current = json.load(f)
        recovery_baseline = {}
        if args.recovery_baseline:
            with open(args.recovery_baseline) as f:
                recovery_baseline = json.load(f)
        check_recovery(recovery_current, recovery_baseline, errors)

    if args.htap_current:
        with open(args.htap_current) as f:
            htap_current = json.load(f)
        htap_baseline = {}
        if args.htap_baseline:
            with open(args.htap_baseline) as f:
                htap_baseline = json.load(f)
        check_htap(htap_current, htap_baseline, args.threshold, errors)

    if args.server_current:
        with open(args.server_current) as f:
            server_current = json.load(f)
        server_baseline = {}
        if args.server_baseline:
            with open(args.server_baseline) as f:
                server_baseline = json.load(f)
        check_server(server_current, server_baseline, errors)

    if args.server_metrics:
        with open(args.server_metrics) as f:
            check_server_metrics(json.load(f), errors)

    if args.metrics:
        with open(args.metrics) as f:
            check_metrics_coverage(json.load(f), errors)

    if UNVERIFIED:
        print(f"UNVERIFIED ({len(UNVERIFIED)} gate(s) not exercised by this "
              f"hardware; not counted as passed):")
        for line in UNVERIFIED:
            print(f"  - {line}")
    if errors:
        for e in errors:
            print(f"REGRESSION: {e}", file=sys.stderr)
        return 1
    if UNVERIFIED:
        print("perf gate: OK for the gates this hardware exercised")
    else:
        print("perf gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
