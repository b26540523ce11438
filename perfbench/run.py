"""risknav benchmark: run one workload for a fixed time and print its
metrics.

    python3 perfbench/run.py --workload sweep --seed 7 --seconds 30 --trace 0

Workloads: sweep, sweep-2w, simulate, replan (see perfbench/README.md).

--trace 0 times the workload with nothing wrapped and prints the
end-to-end metrics.  --trace 1 runs a fixed amount of the workload twice:
once in this process untraced, once in a fresh child process with every
layer wrapped (perfbench/tracer.py).  Both must produce the same output
digest; the child's spans give the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A run record with the machine,
versions, load average and sample counts is written to perfbench/out/.
The exit code is 0 only when every output passed its check.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# Ops are grouped into windows of at least this much op time, and machine
# speed is calibrated between windows.
WINDOW_NS = 100_000_000
# A sweep op runs for seconds, so its machine speed is sampled meanwhile.
SAMPLE_PERIOD_S = 0.25
SETUP_PROBES = 7
# A fresh interpreter imports risknav and loads the bundled map and mission,
# then prints its machine-speed calibration and the ns spent after loading.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, "src")
import risknav
risknav.load_default_mission(risknav.load_default_environment())
t = time.perf_counter_ns()
sys.path.insert(0, "perfbench")
import calib
print(calib.calibrate(), time.perf_counter_ns() - t)
"""


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "risknav", "__init__.py")):
        fail(f"no risknav sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import risknav
    if not os.path.abspath(risknav.__file__).startswith(SRC + os.sep):
        fail(f"imported risknav from {risknav.__file__}, not {SRC}")


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# running operations


class Run:
    """Outcome of a sequence of operations of one workload."""

    def __init__(self):
        # compact, so the benchmark's own memory barely moves peak_rss_mb
        self.latencies_ns = array.array("q")
        self.timed_weight = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digest = hashlib.sha256()

    def record_failure(self, weight, msg):
        self.failed += weight
        if len(self.errors) < 20:
            self.errors.append(msg)


def run_op(wl, i, run, timed):
    x = wl.input(i)
    t0 = time.perf_counter_ns()
    try:
        out = wl.op(x)
    except Exception as exc:  # an op that raises is a failed op
        out, err = None, f"op {i} raised {type(exc).__name__}: {exc}"
    else:
        err = None
    dt = time.perf_counter_ns() - t0
    w = wl.weight
    run.attempted += w
    if out is not None:
        err = wl.check(i, out)
        run.digest.update(wl.digest(out).encode())
    if err is not None:
        run.record_failure(w, f"op {i}: {err}")
    if timed:
        run.latencies_ns.append(dt)
        run.timed_weight += w
    return out


def smoke(wl, sample, run):
    """Feed each corruption of a good output to the check; each must be
    rejected, or the run fails."""
    if sample is None:
        return
    for n, spoil in enumerate(wl.corruptions):
        if wl.check(sys.maxsize, spoil(sample)) is None:
            run.record_failure(1, f"check accepted corrupted output {n}")


def percentiles(lat_ms):
    """p50 plus each of p90 / p99 that has at least 10 samples beyond it."""
    n = len(lat_ms)
    out = {"latency_p50_ms": statistics.median(lat_ms)}
    s = sorted(lat_ms)
    for p in (90, 99):
        if n * (100 - p) / 100 >= 10:
            out[f"latency_p{p}_ms"] = s[min(n - 1, int(n * p / 100))]
    return out


def measure_setup():
    """Median set-up time over fresh interpreters, scaled by each probe's
    own calibration; returns (scaled, raw) seconds."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              check=True, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter_ns() - t0
        cal, tail = (int(x) for x in proc.stdout.split())
        raw.append((wall - tail) / 1e9)
        scaled.append(raw[-1] * calib.REF_NS / cal)
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mb(with_children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# ---------------------------------------------------------------------------
# the two modes


def timed_run(wl, seconds):
    run = Run()
    sample = None
    for i in range(wl.warmup):
        sample = run_op(wl, i, run, timed=False) or sample
    i = wl.warmup
    windows, cal = [], [calib.calibrate()]
    sampler = calib.Sampler(SAMPLE_PERIOD_S if wl.long_ops else None)
    start = time.perf_counter()

    def more():
        return time.perf_counter() - start < seconds or i < wl.min_ops

    with sampler:
        while more():
            first, weight, op_ns = len(run.latencies_ns), run.timed_weight, 0
            t0 = time.perf_counter_ns()
            while op_ns < WINDOW_NS and more():
                sample = run_op(wl, i, run, timed=True) or sample
                op_ns += run.latencies_ns[-1]
                i += 1
            inside, spent = sampler.between(t0, time.perf_counter_ns())
            cal.append(calib.calibrate())
            # > 1 while the machine runs slower than the reference speed
            slow = statistics.median(inside or cal[-2:]) / calib.REF_NS
            windows.append((first, run.timed_weight - weight, op_ns - spent,
                            slow, op_ns))
    wall = time.perf_counter() - start
    # the sweep workers are children that have exited by now; probes
    # started later do not count
    rss = peak_rss_mb(with_children=wl.workers > 1)
    for msg in wl.finish():
        run.record_failure(run.attempted, msg)
    smoke(wl, sample, run)
    setup, setup_raw = measure_setup()

    rate = statistics.median(ops / net_ns * 1e9 * slow
                             for _, ops, net_ns, slow, _ in windows)
    ends = [w[0] for w in windows[1:]] + [len(run.latencies_ns)]

    def latencies(scaled):
        # each latency loses the share of its window spent in the sampler
        return percentiles([
            ns * net_ns / op_ns / (slow if scaled else 1.0) / 1e6
            for (first, _, net_ns, slow, op_ns), end in zip(windows, ends)
            for ns in run.latencies_ns[first:end]])

    lat = latencies(scaled=True)
    metrics = {
        "ops_per_s": (rate, "1/s"),
        "latency_p50_ms": (lat["latency_p50_ms"], "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {f"{wl.op_name}_per_s": (rate, "1/s")}
    extra.update({k: (v, "ms") for k, v in lat.items()})
    extra["error_rate"] = (run.failed / max(run.attempted, 1), "ratio")
    raw_lat = latencies(scaled=False)
    extra["raw_ops_per_s"] = (statistics.median(
        ops / net_ns * 1e9 for _, ops, net_ns, _, _ in windows), "1/s")
    extra.update({f"raw_{k}": (v, "ms") for k, v in raw_lat.items()})
    extra["raw_setup_s"] = (setup_raw, "s")
    samples = {"ops_timed": len(run.latencies_ns),
               "throughput_windows": len(windows),
               "wall_s": wall,
               "calibration_ns_min_median_max":
                   [min(cal), statistics.median(cal), max(cal)],
               # [first op, ops, op ns net of sampling, slowdown, op ns]
               "windows": windows}
    return run, metrics, extra, samples


def fixed_work(wl, tracer=None):
    """Warm up untraced, then run the workload's fixed traced amount;
    returns (run, seconds spent inside its operations, slowdown)."""
    run = Run()
    for i in range(wl.warmup):
        run_op(wl, i, run, timed=False)
    run.digest = hashlib.sha256()
    if tracer is not None:
        tracer.install()
    # the sampler's handler time lands in whatever span is open, a few
    # percent on every span of both runs
    with calib.Sampler(SAMPLE_PERIOD_S) as sampler:
        for i in range(wl.warmup, wl.warmup + wl.trace_ops):
            run_op(wl, i, run, timed=True)
    if tracer is not None:
        tracer.uninstall()
    cal, _ = sampler.between(0, time.perf_counter_ns())
    return (run, sum(run.latencies_ns) / 1e9,
            statistics.median(cal or [calib.calibrate()]) / calib.REF_NS)


def traced_child(wl, dump_dir):
    import tracer as tracing
    tr = tracing.Tracer(dump_dir)
    run, wall, slow = fixed_work(wl, tr)
    workers = tr.merge_worker_dumps()
    return {"wall_s": wall, "slow": slow, "digest": run.digest.hexdigest(),
            "attempted": run.attempted, "failed": run.failed,
            "errors": run.errors, "ops": run.timed_weight,
            "missing": tr.missing, "worker_dumps": workers,
            "snapshot": tr.snapshot()}


def traced_run(wl, args):
    import tracer as tracing
    run, wall, slow = fixed_work(wl)
    for msg in wl.finish():
        run.record_failure(run.attempted, msg)
    dump_dir = os.path.join(OUT_DIR, f"trace-{os.getpid()}")
    os.makedirs(dump_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             wl.name, "--seed", str(args.seed), "--traced-child", dump_dir],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    finally:
        for entry in os.listdir(dump_dir):
            os.unlink(os.path.join(dump_dir, entry))
        os.rmdir(dump_dir)
    if proc.returncode != 0:
        fail(f"traced child exited {proc.returncode}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    run.attempted += child["attempted"]
    run.failed += child["failed"]
    run.errors += child["errors"]
    if child["digest"] != run.digest.hexdigest():
        run.record_failure(child["attempted"],
                           "traced outputs differ from untraced outputs")
    snap = child["snapshot"]
    # span times scaled to the reference machine speed, as in timed runs
    for stats in snap["stats"].values():
        stats[1] /= child["slow"]
        stats[2] /= child["slow"]
    ops = child["ops"]
    metrics = tracing.layer_metrics(snap, ops)
    metrics["trace.overhead_ratio"] = (
        child["wall_s"] / child["slow"] / (wall / slow), "ratio")
    layers = tracing.self_time_by_layer(snap)
    span_ns = sum(layers.values()) or 1
    samples = {
        "ops_traced": ops,
        "untraced_op_s": wall,
        "traced_op_s": child["wall_s"],
        "slowdown_untraced_traced": [slow, child["slow"]],
        "self_share_by_layer": {k: round(v / span_ns, 4)
                                for k, v in layers.items()},
        # share of the traced op time inside a top-level span; the rest is
        # the benchmark's own code between layer calls
        "covered_share": snap["covered_ns"] / (child["wall_s"] * 1e9),
        "worker_dumps": child["worker_dumps"],
        "missing_spans": child["missing"],
    }
    return run, metrics, {}, samples


# ---------------------------------------------------------------------------
# run record


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def git_commit():
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    found = _read(os.path.join(ROOT, ".git", ref))
    if found is not None:
        return found.strip()
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or
                 "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def loadavg():
    text = _read("/proc/loadavg")
    return text.split()[:3] if text else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-child", metavar="DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, load_reference())

    if args.traced_child is not None:
        print(json.dumps(traced_child(wl, args.traced_child)))
        return 0

    load_before = loadavg()
    started = time.time()
    if args.trace:
        run, metrics, extra, samples = traced_run(wl, args)
    else:
        run, metrics, extra, samples = timed_run(wl, args.seconds)
    import numpy
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started_unix": started,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "loadavg_before": load_before, "loadavg_after": loadavg(),
        "samples": samples, "errors": run.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
        "also_reported": {k: {"value": v, "unit": u} for k, (v, u) in
                          extra.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}-"
                 f"{int(started)}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{name:48s} {value:14.6g} {unit}")
    for name, value in samples.items():
        if name != "windows":
            print(f"{name:48s} {value}")
    for msg in run.errors:
        print(f"ERROR {msg}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
