#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload kv-a-sustained --seed 1 \\
        --seconds 45 --trace 0

Run from the repository root. The first run builds the harness and
the libraries it drives into .bench_build/ (see CMakeLists.txt here).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. Every metric is also printed by
name with its unit on stderr. The exit code is 0 only when every
output check passed; a correctness violation exits 1 and a broken
build or harness exits 2. See README.md for the workloads and the
definition of every metric.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
PERFBENCH = os.path.join(BUILD, "perfbench")

# The workloads' shape (shards, threads, keys, the QPS ladder) is fixed
# in perfbench.cc; the harness reports what the arithmetic here needs.
SETUP_REPS = 3
SERVE_RESTARTS = 5
KV_REPS = 3
# kv-a-sustained: the KV_REPS lifecycles share --seconds. Each plans
# this many ops per client thread per second of its share and stops at
# the end of it. At 45 s that is 1.5M per thread and 1.5M updates per
# lifecycle, about 9x the 8 MiB reclaim threshold of log per shard:
# some 10 s of work on a 4-vCPU VM, were it not for the pool
# exhaustion that ends today's lifecycles after about 6 s.
KV_OPS_PER_THREAD_PER_S = 100_000
SLO_P99_US = 2000.0  # 4x the 500 us epoch delay bound
SENDLAG_LIMIT_US = 1000.0
# Everything after the build must end within this many seconds.
BUDGET_S = 170
_deadline = float("inf")

STAGES = ["queue", "exec", "seal_wait", "write"]

# Metric names and units are declared once, in BENCHMARK.json.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _DECLARED = json.load(_f)
E2E = [(m["name"], m["unit"]) for m in _DECLARED["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _DECLARED["per_layer"]]


class HarnessError(Exception):
    """The benchmark itself could not run (exit 2, no result)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def remaining():
    left = _deadline - time.monotonic()
    if left <= 0:
        raise HarnessError("time budget of %d s exhausted" % BUDGET_S)
    return left


# ---------------------------------------------------------------------
# Build and child processes
# ---------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "kv", "kv_service.hh")):
        raise HarnessError("no SpecPMT sources next to perfbench/ "
                           "(run from a repository checkout)")
    os.makedirs(BUILD, exist_ok=True)
    steps = [["cmake", "--build", BUILD, "-j", "4"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(os.path.join(BUILD, "build.log"), "w+") as build_log:
        for step in steps:
            if subprocess.run(step, stdout=build_log,
                              stderr=subprocess.STDOUT).returncode != 0:
                build_log.seek(0)
                sys.stderr.write(build_log.read()[-4000:])
                raise HarnessError("build failed: " + " ".join(step))


class Child:
    """A child process whose exit status and rusage are collected."""

    live = set()

    def __init__(self, args, stdout_path=None):
        self.out_path = stdout_path
        out = open(stdout_path, "w") if stdout_path else subprocess.DEVNULL
        self.proc = subprocess.Popen([PERFBENCH] + args, stdout=out)
        if stdout_path:
            out.close()
        Child.live.add(self)
        self.returncode = None
        self.maxrss_kib = 0
        self.timed_out = False

    def signal(self, sig):
        if self.returncode is None:
            self.proc.send_signal(sig)

    def expire(self):
        self.timed_out = True
        self.signal(signal.SIGKILL)

    def wait(self):
        """Reap the child; kill it when the run's time budget ends."""
        timer = threading.Timer(max(0.0, _deadline - time.monotonic()),
                                self.expire)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        Child.live.discard(self)
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.maxrss_kib = usage.ru_maxrss
        if self.timed_out:
            raise HarnessError("%s outlived the time budget"
                               % self.proc.args[1])
        return self.returncode

    def json(self):
        with open(self.out_path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            raise HarnessError("%s printed nothing" % self.proc.args[1])
        return json.loads(lines[-1])


def run_child(args, stdout_path=None):
    remaining()
    child = Child(args, stdout_path)
    child.wait()
    return child


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_work(path):
    """Delete a pass's files at once: the kernel then drops their dirty
    pages instead of writing hundreds of MiB of PM images back to disk
    while the next pass is being measured."""
    shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------
# Span analysis (traced runs)
# ---------------------------------------------------------------------

SPAN_LAYER = {
    "bench_get": "kv", "bench_put": "kv", "kv_recover": "kv",
    "kv_recover_shard": "kv",
    "tx": "core", "tx_readonly": "core", "tx_abort": "core",
    "flush_batch": "core", "epoch_seal": "core",
    "reclaim_cycle": "core", "spec_recover": "core",
    "srv_queue": "net", "srv_exec": "net", "seal_wait": "net",
    "ack_write": "net", "net_execute_batch": "net",
    "bench_load": "bench", "bench_crash": "bench",
    "bench_recover": "bench", "client_send": "bench",
    "client_rtt": "bench",
}


def load_spans(paths):
    """Complete events of Chrome trace files, tagged by source file."""
    spans = []
    for index, path in enumerate(paths):
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            try:
                events = json.load(f).get("traceEvents", [])
            except ValueError:
                continue
        for e in events:
            if e.get("ph") == "X":
                spans.append({"name": e["name"], "tid": (index, e["tid"]),
                              "ts": float(e["ts"]), "dur": float(e["dur"])})
    return spans


def self_times(spans):
    """Span duration minus the part its nested child spans cover (us).

    Spans nest per thread; a span that only overlaps another without
    being contained in it is treated as a sibling.
    """
    by_tid = {}
    for s in spans:
        s["child"] = 0.0
        by_tid.setdefault(s["tid"], []).append(s)
    for group in by_tid.values():
        group.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack = []
        for s in group:
            end = s["ts"] + s["dur"]
            while stack and stack[-1]["ts"] + stack[-1]["dur"] < end:
                stack.pop()
            if stack:
                stack[-1]["child"] += s["dur"]
            stack.append(s)
    for s in spans:
        s["self"] = max(0.0, s["dur"] - s["child"])
    return spans


def span_stats(spans):
    out = {}
    durs = {}
    for s in spans:
        durs.setdefault(s["name"], []).append(s)
    def pct(name, p, key="dur"):
        values = sorted(s[key] for s in durs.get(name, []))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(p / 100.0 * len(values)))]
    out["core.tx_us.p50"] = pct("tx", 50)
    out["core.tx_us.p99"] = pct("tx", 99)
    out["core.flush_batch_us.p50"] = pct("flush_batch", 50)
    reclaim = [s["self"] for s in durs.get("reclaim_cycle", [])]
    out["core.reclaim_ms.total"] = sum(reclaim) / 1e3
    out["core.reclaim_ms.p99"] = pct("reclaim_cycle", 99, "self") / 1e3
    reps = max(1, len(durs.get("bench_recover", [])))
    out["core.recover_ms"] = (
        sum(s["dur"] for s in durs.get("spec_recover", [])) / reps / 1e3)
    for layer in ("bench", "kv", "core", "net"):
        out["%s.self_ms" % layer] = sum(
            s["self"] for s in spans
            if SPAN_LAYER.get(s["name"]) == layer) / 1e3
    return out


# ---------------------------------------------------------------------
# kv-a-sustained
# ---------------------------------------------------------------------

def kv_pass(seed, seconds, trace, rep=0):
    work = fresh_dir(os.path.join(WORK, "kv-%d" % rep))
    ops = int(KV_OPS_PER_THREAD_PER_S * seconds)
    run = run_child(["kv-run", "--work=" + work, "--seed=%d" % seed,
                     "--ops=%d" % ops, "--deadline-s=%g" % seconds,
                     "--trace=%d" % trace])
    if run.returncode not in (0, 3) and run.returncode >= 0:
        raise HarnessError("kv-run exited with %d" % run.returncode)
    report = run_child(["kv-report", "--work=" + work,
                        "--trace=%d" % trace],
                       os.path.join(work, "report.json"))
    if report.returncode != 0:
        raise HarnessError("kv-report exited with %d" % report.returncode)
    r = report.json()
    r["exit"] = run.returncode
    r["spans"] = load_spans([os.path.join(work, "trace-run.json"),
                             os.path.join(work, "trace-recover.json")])
    remove_work(work)
    return r


def kv_metrics(r):
    ok = r["completed"] - r["failed_ops"]
    # A run that ends at its deadline attempted the ops it issued. One
    # that stops at a refused update or dies attempted its whole plan:
    # every op it did not complete counts as failed.
    plan_done = r["exit"] == 0
    attempted = r["completed"] if plan_done else r["planned"]
    run_s = r["run_ns"] / 1e9
    snap_ops = max(1.0, r["snap_ops"])
    e2e = {
        "setup_s": r["setup_ns"] / 1e9,
        "ops_per_s": ok / run_s,
        "read_p50_us": r["read_p50_ns"] / 1e3,
        "read_p99_us": r["read_p99_ns"] / 1e3,
        "update_p50_us": r["update_p50_ns"] / 1e3,
        "update_p99_us": r["update_p99_ns"] / 1e3,
        "lat_mean_us": r["lat_mean_ns"] / 1e3,
        "ok_frac": ok / attempted,
        "sim_ops_per_s": snap_ops / (max(1.0, r["sim_ns"]) / 1e9),
        "fences_per_op": r["fences"] / snap_ops,
        "pm_bytes_per_user_byte": r["line_writes"] / max(1.0, r["snap_puts"]),
        "log_space_amp": r["log_peak_bytes"] / r["live_bytes"],
        "recover_s": r["recover_ns"] / 1e9,
        "peak_rss_mib": r["peak_rss_bytes"] / 2**20,
    }
    layer = {name: 0.0 for name, _ in PER_LAYER}
    layer.update({
        "failed_frac": 1.0 - ok / attempted,
        "kv.put_us.p50": e2e["update_p50_us"],
        "kv.put_us.p99": e2e["update_p99_us"],
        "kv.get_us.p50": e2e["read_p50_us"],
        "kv.get_us.p99": e2e["read_p99_us"],
        "kv.load_s": r["load_ns"] / 1e9,
        "kv.recover_s": e2e["recover_s"],
        "kv.recover_failed": r["recover_failed"],
        "kv.readonly_rejects": r["readonly_rejects"],
        "core.log_bytes_per_commit":
            r["log_bytes_written"] / max(1.0, r["commits"]),
        "core.log_peak_mib": r["log_peak_bytes"] / 2**20,
        "core.reclaim_cycles": r["reclaim_cycles"],
        "core.reclaim_freed_frac":
            r["reclaim_bytes_freed"] / max(1.0, r["log_bytes_written"]),
        "pmem.fences_per_op": e2e["fences_per_op"],
        "pmem.clwbs_per_op.data": r["clwbs_data"] / snap_ops,
        "pmem.clwbs_per_op.log": r["clwbs_log"] / snap_ops,
        "pmem.clwbs_per_op.meta": r["clwbs_meta"] / snap_ops,
        "pmem.line_writes_per_op": r["line_writes"] / snap_ops,
        "pmem.sim_ns_per_op": r["sim_ns"] / snap_ops,
        "pmem.pool_exhausted": r["pool_exhausted"],
    })
    violations = r["read_violations"] + r["verify_violations"]
    notes = []
    if r["exit"] < 0:
        notes.append("run process killed by signal %d (%s)"
                     % (-r["exit"], signal.Signals(-r["exit"]).name))
    elif r["exit"] == 3:
        notes.append("run stopped at its first refused update")
    if r["error"]:
        notes.append("error: " + r["error"])
    if r["recover_failed"]:
        notes.append("recovery failed: " + r["recover_error"])
    return e2e, layer, plan_done, violations, notes


def median_of(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def kv_workload(seed, seconds, trace):
    # The whole lifecycle (set-up, run, crash image, reopen, verify)
    # runs KV_REPS times on the same inputs, each run in its share of
    # --seconds; each metric is the median.
    share = seconds / KV_REPS
    results = [kv_metrics(kv_pass(seed, share, 0, rep))
               for rep in range(KV_REPS)]
    e2e = median_of([r[0] for r in results])
    layer = median_of([r[1] for r in results])
    # Here the result line counts lifecycles, not ops: a lifecycle fails
    # when its run stops at a refused update or dies. Which op the race
    # with the reclaimer ends a run at varies from run to run; whether
    # a run ends early does not. The per-op share is ok_frac.
    attempted = len(results)
    failed = sum(1 for r in results if not r[2])
    violations = sum(r[3] for r in results)
    notes = sorted(set(n for r in results for n in r[4]))
    if trace:
        traced = kv_pass(seed, share, 1)
        traced_e2e, _, _, traced_violations, _ = kv_metrics(traced)
        violations += traced_violations
        layer.update(span_stats(self_times(traced["spans"])))
        layer["bench.trace_overhead_frac"] = (
            1.0 - traced_e2e["ops_per_s"] / e2e["ops_per_s"])
    return e2e, layer, attempted, failed, violations, notes


# ---------------------------------------------------------------------
# serve-b-epoch
# ---------------------------------------------------------------------

class Server:
    def __init__(self, work, trace):
        self.ready = os.path.join(work, "ready")
        if os.path.exists(self.ready):
            os.unlink(self.ready)
        self.child = Child(["serve", "--pm-dir=" + os.path.join(work, "pm"),
                            "--ready-file=" + self.ready,
                            "--trace=%d" % trace])
        while not os.path.exists(self.ready):
            if self.child.proc.poll() is not None:
                Child.live.discard(self.child)
                raise HarnessError("server exited during start-up")
            remaining()
            time.sleep(0.002)
        with open(self.ready) as f:
            port, admin, open_ns = f.read().split()
        self.port, self.admin, self.open_ns = int(port), int(admin), int(open_ns)

    def stop(self, sig=signal.SIGTERM):
        self.child.signal(sig)
        rc = self.child.wait()
        if sig == signal.SIGTERM and rc != 0:
            raise HarnessError("server exited with %d" % rc)


def client(server, work, seed, phase, extra, name):
    args = ["serve-client", "--phase=" + phase, "--port=%d" % server.port,
            "--admin-port=%d" % server.admin, "--seed=%d" % seed,
            "--acked=" + os.path.join(work, "acked")]
    c = run_child(args + extra, os.path.join(work, name + ".json"))
    if c.returncode != 0:
        raise HarnessError("serve-client %s exited with %d"
                           % (phase, c.returncode))
    return c.json()


def serve_pass(seed, seconds, trace):
    work = fresh_dir(os.path.join(WORK, "serve"))
    pm = os.path.join(work, "pm")
    setups = []
    loads = []
    server = None
    for rep in range(SETUP_REPS):
        if server:
            server.stop()
        shutil.rmtree(pm, ignore_errors=True)
        t0 = time.monotonic()
        server = Server(work, trace)
        loads.append(client(server, work, seed, "load", [], "load")["load_ns"])
        setups.append(time.monotonic() - t0)
    extra = ["--seconds=%g" % seconds, "--trace=%d" % trace,
             "--trace-out=" + os.path.join(work, "trace-client.json"),
             "--server-trace-out=" + os.path.join(work, "trace-server.json")]
    ladder = client(server, work, seed, "ladder", extra, "ladder")
    # Power failure of the server process, then restarts on the same
    # images: each restart reopens them, running every shard's recovery.
    server.stop(signal.SIGKILL)
    peak_kib = server.child.maxrss_kib
    reopen = []
    for rep in range(SERVE_RESTARTS):
        server = Server(work, 0)
        reopen.append(server.open_ns / 1e9)
        if rep + 1 < SERVE_RESTARTS:
            server.stop(signal.SIGKILL)
    verify = client(server, work, seed, "verify", [], "verify")
    server.stop()
    spans = load_spans([os.path.join(work, "trace-client.json"),
                        os.path.join(work, "trace-server.json")])
    remove_work(work)
    return {"setup_s": statistics.median(setups),
            "load_s": statistics.median(loads) / 1e9,
            "recover_s": statistics.median(reopen),
            "peak_rss_kib": peak_kib, "steps": ladder["steps"],
            "live_bytes": ladder["live_bytes"],
            "verify": verify, "spans": spans}


def serve_metrics(r):
    steps = r["steps"]
    probe = steps[0]
    acked = sum(s["acked"] for s in steps)
    wall = sum(s["wall_ns"] for s in steps) / 1e9
    scheduled = sum(s["scheduled"] for s in steps)
    ok = sum(s["acked"] - s["not_found"] for s in steps)
    updates = sum(s["update"]["count"] for s in steps)
    # Emulated PM time per shard (the shards' clocks averaged).
    sim_s = sum(s["sim_ns"] for s in steps) / 1e9
    n = max(1, probe["all"]["count"])
    lat_mean_us = (probe["read"]["sum_ns"] + probe["update"]["sum_ns"]) / n / 1e3
    e2e = {
        "setup_s": r["setup_s"],
        "ops_per_s": ok / wall,
        "read_p50_us": probe["read"]["p50_ns"] / 1e3,
        "read_p99_us": probe["read"]["p99_ns"] / 1e3,
        "update_p50_us": probe["update"]["p50_ns"] / 1e3,
        "update_p99_us": probe["update"]["p99_ns"] / 1e3,
        "lat_mean_us": lat_mean_us,
        "ok_frac": ok / scheduled,
        "sim_ops_per_s": acked / max(sim_s, 1e-9),
        "fences_per_op": sum(s["fences"] for s in steps) / max(1, acked),
        "pm_bytes_per_user_byte":
            sum(s["line_writes"] for s in steps) / max(1, updates),
        "log_space_amp":
            steps[-1]["log_peak_bytes"] / r["live_bytes"],
        "recover_s": r["recover_s"],
        "peak_rss_mib": r["peak_rss_kib"] / 1024.0,
    }
    qps_at_slo = 0.0
    for s in steps:
        good = (s["all"]["p99_ns"] / 1e3 <= SLO_P99_US
                and s["acked"] == s["scheduled"] and s["errors"] == 0
                and s["lost"] == 0
                and s["sendlag_p99_ns"] / 1e3 <= SENDLAG_LIMIT_US)
        if good:
            qps_at_slo = max(qps_at_slo, s["rate"])
    layer = {name: 0.0 for name, _ in PER_LAYER}
    layer.update({
        "failed_frac": 1.0 - ok / scheduled,
        "qps_at_slo": qps_at_slo,
        "kv.readonly_rejects": sum(s["readonly_rejects"] for s in steps),
        "kv.recover_s": r["recover_s"],
        "kv.load_s": r["load_s"],
        "core.log_bytes_per_commit": sum(s["log_bytes_written"] for s in steps)
            / max(1, sum(s["commits"] for s in steps)),
        "core.log_peak_mib": steps[-1]["log_peak_bytes"] / 2**20,
        "core.reclaim_cycles": sum(s["reclaim_cycles"] for s in steps),
        "core.reclaim_freed_frac": sum(s["reclaim_bytes_freed"] for s in steps)
            / max(1, sum(s["log_bytes_written"] for s in steps)),
        "core.txs_per_seal": probe["epoch_txs_sealed"]
            / max(1, probe["epoch_seals"]),
        "core.seals_per_s": probe["epoch_seals"] / (probe["wall_ns"] / 1e9),
        "pmem.fences_per_op": e2e["fences_per_op"],
        "pmem.clwbs_per_op.data":
            sum(s["clwbs_data"] for s in steps) / max(1, acked),
        "pmem.clwbs_per_op.log":
            sum(s["clwbs_log"] for s in steps) / max(1, acked),
        "pmem.clwbs_per_op.meta":
            sum(s["clwbs_meta"] for s in steps) / max(1, acked),
        "pmem.line_writes_per_op":
            sum(s["line_writes"] for s in steps) / max(1, acked),
        "pmem.sim_ns_per_op": sim_s * 1e9 / max(1, acked),
        "net.ops_per_commit": probe["batch_ops"] / max(1, probe["batch_commits"]),
        "net.busy": sum(s["busy"] for s in steps),
        "net.lost": sum(s["lost"] for s in steps),
        "net.errors": sum(s["errors"] + s["protocol_errors"] for s in steps),
        "net.evicted": sum(s["net_evicted"] for s in steps),
        "bench.strict_sent": sum(s["strict_sent"] for s in steps),
    })
    # Stage means are per request of the probe step (a request that
    # skips a stage adds 0), so they and the rest add up to the mean.
    attributed = 0.0
    for stage in STAGES:
        mean = probe[stage + "_mean_ns"] * probe[stage + "_count"] / n / 1e3
        layer["net.stage_us.%s.mean" % stage] = mean
        layer["net.stage_us.%s.p50" % stage] = probe[stage + "_p50_ns"] / 1e3
        attributed += mean
    layer["net.unattributed_us"] = lat_mean_us - attributed
    for s in steps:
        name = "%dk" % (s["rate"] // 1000)
        layer["bench.sendlag_p99_us." + name] = s["sendlag_p99_ns"] / 1e3
        layer["bench.backlog." + name] = (s["scheduled"] - s["sent"]) + s["lost"]
        layer["bench.unacked." + name] = s["scheduled"] - s["acked"]
    v = r["verify"]
    violations = (v["violations"] + v["protocol_errors"]
                  + sum(s["protocol_errors"] for s in steps))
    notes = []
    if v["acked_keys"] == 0:
        notes.append("no acked update to read back")
        violations += 1
    return e2e, layer, scheduled, scheduled - ok, violations, notes


def serve_workload(seed, seconds, trace):
    r = serve_pass(seed, seconds, 0)
    e2e, layer, attempted, failed, violations, notes = serve_metrics(r)
    if trace:
        traced = serve_pass(seed, seconds, 1)
        traced_e2e, _, _, _, traced_violations, _ = serve_metrics(traced)
        violations += traced_violations
        layer.update({k: v for k, v in
                      span_stats(self_times(traced["spans"]))
                      .items() if k.endswith("self_ms")
                      or k.startswith("core.tx_us")
                      or k.startswith("core.flush_batch")})
        # Open loop: the offered rate is fixed, so tracing shows up as
        # latency; the overhead is the probe's mean-latency ratio.
        layer["bench.trace_overhead_frac"] = (
            1.0 - e2e["lat_mean_us"] / traced_e2e["lat_mean_us"])
    return e2e, layer, attempted, failed, violations, notes


WORKLOADS = {
    "kv-a-sustained": kv_workload,
    "serve-b-epoch": serve_workload,
}


def run_workload(name, args):
    """Run one workload; print its table (stderr) and result (stdout)."""
    e2e, layer, attempted, failed, violations, notes = WORKLOADS[name](
        args.seed, args.seconds, args.trace)
    log("%s (seed %d, %g s):" % (name, args.seed, args.seconds))
    for note in notes:
        log("  note: " + note)
    shown = dict(e2e)
    shown["failed_frac"] = layer["failed_frac"]
    if name == "serve-b-epoch":
        shown["qps_at_slo"] = layer["qps_at_slo"]
    if args.trace:
        shown.update(layer)
    units = dict(E2E + PER_LAYER)
    for metric in sorted(shown):
        log("  %-30s %16.6g %s" % (metric, shown[metric], units[metric]))
    if violations:
        log("  CORRECTNESS: %d violation(s)" % violations)
    declared = PER_LAYER if args.trace else E2E
    values = layer if args.trace else e2e
    print(json.dumps({
        "correct": violations == 0, "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in declared}}), flush=True)
    return violations == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    global _deadline
    try:
        build()
        correct = []
        for name in names:
            _deadline = time.monotonic() + BUDGET_S
            correct.append(run_workload(name, args))
    except HarnessError as err:
        log("perfbench: %s" % err)
        return 2
    finally:
        for child in list(Child.live):
            child.signal(signal.SIGKILL)
            os.waitpid(child.proc.pid, 0)
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
