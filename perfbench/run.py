#!/usr/bin/env python3
"""The cmtower benchmark.

    python3 perfbench/run.py --workload {lt_dense,tower,cli_mix} --seed N \
        --seconds S --trace {0,1} [--short]

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  One process, one thread, a closed loop
with one client: each job starts after the previous one returns.

A run measures set-up time in fresh processes, warms up, then times passes
over the workload's fixed job batch until ``--seconds`` is spent (at
least one pass).  Every job's output is checked in every pass, outside the
timed region, and garbage is collected between jobs, also outside it.
With ``--trace 1`` one traced pass follows the untraced ones and the
per-layer metrics come from its spans; end-to-end metrics always come
from untraced passes.  Reported times are scaled to a reference core by a
calibration kernel timed around and during every job (see "calibration"
below); the raw times are printed beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give the job count, the failures by class, the environment and the
source size.  A full record of the run goes to
``perfbench/.work/result-<workload>-seed<seed>-trace<t>.json`` and the
spans of a traced run to ``perfbench/.work/spans-<workload>-seed<seed>.csv.gz``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference")

END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

MODULES = ("__init__", "cli", "cm_split", "elliptic_fg", "errors",
           "galois_model", "local_tower", "lubin_tate", "padic", "unit_wedge")

PER_LAYER = (
    ("padic.series_mul.calls", "count"),
    ("padic.series_mul.self_s", "s"),
    ("padic.series_mul.pairs", "count"),
    ("padic.series_compose.calls", "count"),
    ("padic.series_compose.self_s", "s"),
    ("padic.ring_det.calls", "count"),
    ("padic.ring_det.self_s", "s"),
    ("padic.ring_det.total_s", "s"),
    ("padic.ring_det.max_dim", "count"),
    ("padic.poly_divmod.calls", "count"),
    ("padic.poly_divmod.self_s", "s"),
    ("padic.padicint.new", "count"),
    ("padic.newton_polygon.calls", "count"),
    ("padic.hensel_root.calls", "count"),
    ("padic.hensel_root.self_s", "s"),
    ("lubin_tate.group_law.calls", "count"),
    ("lubin_tate.group_law.self_s", "s"),
    ("lubin_tate.endo.self_s", "s"),
    ("lubin_tate.solve_intertwine.self_s", "s"),
    ("lubin_tate.strict_iso.self_s", "s"),
    ("local_tower.build.self_s", "s"),
    ("local_tower.level_disc.calls", "count"),
    ("local_tower.level_disc.self_s", "s"),
    ("local_tower.elem_mul.calls", "count"),
    ("local_tower.divide.self_s", "s"),
    ("local_tower.conductor.self_s", "s"),
    ("cm_split.field.self_s", "s"),
    ("cm_split.pick_pi.self_s", "s"),
    ("galois_model.indices.self_s", "s"),
    ("galois_model.compose.calls", "count"),
    ("unit_wedge.reduce.self_s", "s"),
    ("unit_wedge.extend.self_s", "s"),
    ("unit_wedge.steps", "count"),
    ("elliptic_fg.expand.self_s", "s"),
    ("elliptic_fg.frobenius.self_s", "s"),
    ("elliptic_fg.match.self_s", "s"),
    ("cli.load.self_s", "s"),
    ("cli.dispatch.self_s", "s"),
    ("cli.report.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("bench.job.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
) + tuple((f"src.{m}.lines", "lines") for m in MODULES + ("total",))

SETUP_PROBES = 7
# Reference time of the calibration kernel: its typical time on an idle
# core of the 2-vCPU host (Python 3.11) the benchmark was defined on.
CAL_REF_S = 0.0003
# While a job runs, the kernel is also timed every this many seconds.
CAL_INTERVAL_S = 0.025
# a percentile that lands on a failed job has no latency; it reads as this
FAILED_MS = 1e12


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q of the
    values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def plain_call(name, fn, *args):
    return fn(*args)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------
#
# On a shared host the speed of a core drifts by 30% and more over tens of
# seconds, with no steal time visible to the guest: other tenants load the
# physical core and its caches.  A fixed calibration kernel, written in the
# style of the library's hot paths (tuple-keyed dict products of big
# residues), is therefore timed before and after every job and, from a
# SIGALRM timer, every CAL_INTERVAL_S while it runs; the timer's time is
# taken out of the job's.  Each job's time is scaled by CAL_REF_S / (mean
# kernel time over the job).  Reported times are in reference-core seconds:
# on an idle core they equal the raw times.  The kernel is the benchmark's
# own code, so a change to the library moves the reported times exactly as
# it moves the raw ones.

_CAL_MOD = 3 ** 30
_CAL_A = {(i, j): (7 ** (i + 3 * j)) % _CAL_MOD
          for i in range(9) for j in range(9 - i)}


def calibrate():
    """Seconds taken by one run of the calibration kernel."""
    start = time.perf_counter()
    out = {}
    for ea, ca in _CAL_A.items():
        for eb, cb in _CAL_A.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            if e[0] + e[1] <= 8:
                out[e] = (out.get(e, 0) + ca * cb) % _CAL_MOD
    return time.perf_counter() - start


def calibrate_median(k=5):
    return statistics.median(calibrate() for _ in range(k))


class Calibration:
    """Kernel timings around and, when ``interval`` is set, during a job."""

    def __init__(self, interval):
        self.interval = interval
        self.samples = []
        self.ticks = []          # (start, seconds) of each timer handler

    def __enter__(self):
        self.samples.append(calibrate())
        if self.interval:
            self.previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.ticks.append((start, time.perf_counter() - start))

    def __exit__(self, *exc_info):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.previous)
        self.samples.append(calibrate())
        return False

    def spent_before(self, end):
        """Seconds spent in timer handlers that started before ``end``."""
        return sum(d for t, d in self.ticks if t < end)

    def mean(self):
        return statistics.fmean(self.samples)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_lines():
    pkg = os.path.join(SRC, "cmtower")
    lines = {}
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                lines[fname[:-3]] = fh.read().count(b"\n")
    lines["total"] = sum(lines.values())
    return lines


def environment(args):
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "short": args.short,
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_library():
    """Import the workloads (and with them cmtower) from this checkout."""
    if not os.path.isfile(os.path.join(SRC, "cmtower", "__init__.py")):
        raise SystemExit(f"benchmark: no cmtower sources under {SRC}")
    sys.path.insert(0, SRC)
    import cmtower
    import workloads

    if not os.path.abspath(cmtower.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: cmtower imported from {cmtower.__file__}")
    return workloads


def measure_setup(args, rundir, probes):
    """Median over fresh processes of the time from process start to
    inputs ready: interpreter start, importing cmtower and generating the
    workload's inputs.  Each probe is scaled by the calibration kernel
    timed just before and just after it."""
    times = []
    raw = []
    for k in range(probes):
        before = calibrate_median()
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe", os.path.join(rundir, f"probe{k}")]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise SystemExit("benchmark: set-up probe failed")
        cal = math.sqrt(before * calibrate_median())
        raw.append(elapsed)
        times.append(elapsed * CAL_REF_S / cal)
    return statistics.median(times), statistics.median(raw)


def load_reference(workload, seed):
    path = os.path.join(REFERENCE, f"{workload}.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as fh:
        return json.load(fh).get(str(seed), {})


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Outcomes:
    """Failure accounting and output checks across all timed passes."""

    def __init__(self, wl, lib, reference):
        self.wl = wl
        self.lib = lib
        self.reference = reference
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.by_class = {}
        self.examples = {}
        self.unexpected = 0

    def record(self, job, out, exc):
        """Check one job's result; True when the job failed."""
        self.attempted += 1
        cls, detail = self.classify(job, out, exc)
        if cls is None:
            return False
        self.failed += 1
        self.by_class[cls] = self.by_class.get(cls, 0) + 1
        self.examples.setdefault(cls, f"{job.id}: {detail}")
        if cls != self.lib.KNOWN_DEFECT:
            self.unexpected += 1
        return True

    def classify(self, job, out, exc):
        """(failure class, detail), or (None, None) for a correct output."""
        if exc is not None:
            cls = self.lib.failure_class(exc)
            known = self.wl.expected_failure(job, cls)
            return known or cls, f"{type(exc).__name__}: {exc}"
        try:
            problems = self.wl.check(job, out)
            canon = self.lib.digest(self.wl.canonical(job, out))
        except Exception as e:  # a malformed output counts, it must not crash
            problems, canon = [f"check raised {type(e).__name__}: {e}"], None
        ref = self.reference.get(job.id, "")
        if not problems and ref and not ref.startswith("exit:") and ref != canon:
            problems = ["output differs from the reference digest"]
        if not problems and self.digests.setdefault(job.id, canon) != canon:
            problems = ["output differs between passes"]
        if problems:
            return "wrong_output", problems[0]
        return None, None


def run_pass(wl, jobs, outcomes, call=plain_call, tracer=None):
    """One pass over the batch: per job (seconds, mean calibration seconds,
    failed), and the bytes of CLI reports produced.  A traced pass samples
    the kernel only around jobs, so that no handler runs inside a span."""
    results = []
    report_bytes = 0
    for i, job in enumerate(jobs):
        gc.collect()
        if tracer is not None:
            tracer.job = i
        with Calibration(None if tracer else CAL_INTERVAL_S) as cal:
            start = time.perf_counter()
            try:
                out, exc = call("bench.job", wl.run, job, call), None
            except Exception as e:  # classified below, outside the timed region
                out, exc = None, e
            end = time.perf_counter()
        elapsed = end - start - cal.spent_before(end)
        results.append((elapsed, cal.mean(), outcomes.record(job, out, exc)))
        if isinstance(out, dict) and "text" in out:
            report_bytes += len(out["text"].encode())
    return results, report_bytes


def warm_up(wl, jobs, budget):
    """Run jobs untimed and unchecked until the budget is spent, so that
    the interpreter's specialisation and the allocator's arenas settle."""
    end = time.perf_counter() + budget
    for job in jobs:
        try:
            wl.run(job, plain_call)
        except Exception:  # failures are counted in the timed passes
            pass
        if time.perf_counter() > end:
            break


def timed_passes(wl, jobs, outcomes, seconds):
    """Passes until the next one would overrun the time budget."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results, _ = run_pass(wl, jobs, outcomes)
        passes.append(results)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return passes


def job_seconds(t, c, scaled):
    """A job's time t with mean kernel time c, in reference-core seconds
    when scaled, else raw."""
    return t * CAL_REF_S / c if scaled else t


def job_times(passes, scaled=True):
    """Per job, the median of its time over the passes."""
    return [statistics.median(job_seconds(t, c, scaled) for t, c, _ in runs)
            for runs in zip(*passes)]


def timings(passes, scaled=True):
    """(batch seconds, p50 ms, p90 ms).  The batch time sums each job's
    median over the passes; the percentiles are over every execution of
    every job in the run.  A failed execution has no latency: it misses
    any limit, so it ranks above every execution that succeeded."""
    latencies = [math.inf if failed else job_seconds(t, c, scaled)
                 for results in passes for t, c, failed in results]
    ms = [min(x * 1e3, FAILED_MS) for x in
          (percentile(latencies, 0.5), percentile(latencies, 0.9))]
    return sum(job_times(passes, scaled)), ms[0], ms[1]


def end_to_end(passes, setup_s):
    wall, p50, p90 = timings(passes)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {"wall_s": wall, "job_p50_ms": p50, "job_p90_ms": p90,
              "setup_s": setup_s, "peak_rss_mb": rss}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(tracer, report_bytes, overhead, src_lines):
    values = {"cli.report_bytes": report_bytes, "trace.overhead_ratio": overhead}
    values.update(tracer.extra)
    values.update(tracer.counts)
    for name, unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in values:
            continue
        if field == "calls":
            values[name] = tracer.calls.get(base, tracer.counts.get(base, 0))
        elif field == "self_s":
            values[name] = tracer.self_ns.get(base, 0) / 1e9
        elif field == "total_s":
            values[name] = tracer.total_ns.get(base, 0) / 1e9
        elif field == "lines":
            values[name] = src_lines.get(base[len("src."):], 0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def layer_shares(tracer):
    """Share of traced job time per layer (module prefix of the span),
    by self time, largest first."""
    total = sum(tracer.self_ns.values()) or 1
    shares = {}
    for name, ns in tracer.self_ns.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0) + ns / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def record_reference(args, lib, wl, rundir):
    """Run every job once and store its output digest (or its exit code)
    under this seed in reference/<workload>.json.  Refuses when any
    output fails its checks or any failure is not the documented one."""
    jobs = wl.generate(args.seed, os.path.join(rundir, "main"))
    outcomes = Outcomes(wl, lib, {})
    entries = {}
    for job in jobs:
        try:
            out, exc = wl.run(job, plain_call), None
        except Exception as e:  # recorded as its exit code
            out, exc = None, e
        if outcomes.record(job, out, exc) and exc is not None:
            entries[job.id] = f"exit:{lib.EXIT_CODES.get(lib.failure_class(exc), 1)}"
        elif exc is None:
            entries[job.id] = lib.digest(wl.canonical(job, out))
    if outcomes.unexpected:
        raise SystemExit(f"benchmark: not recording, failures {outcomes.examples}")
    path = os.path.join(REFERENCE, f"{wl.name}.json")
    data = {}
    if os.path.isfile(path):
        with open(path) as fh:
            data = json.load(fh)
    data[str(args.seed)] = entries
    os.makedirs(REFERENCE, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(dict(sorted(data.items(), key=lambda kv: int(kv[0]))), fh,
                  indent=1, sort_keys=False)
        fh.write("\n")
    print(f"recorded {len(entries)} jobs for {wl.name} seed {args.seed}")


def benchmark(args, lib, wl, rundir):
    env = environment(args)
    src_lines = source_lines()
    setup_s, raw_setup_s = measure_setup(args, rundir,
                                         1 if args.short else SETUP_PROBES)
    jobs = wl.generate(args.seed, os.path.join(rundir, "main"))
    if args.short:
        jobs = [j for j in jobs if j.short]
    outcomes = Outcomes(wl, lib, load_reference(wl.name, args.seed))
    gc.collect()
    gc.freeze()

    budget = args.seconds / 2 if args.trace else args.seconds
    if not args.short:
        warm_up(wl, jobs, 0.1 * budget)
    passes = timed_passes(wl, jobs, outcomes, 0 if args.short else 0.9 * budget)
    metrics = end_to_end(passes, setup_s)
    raw = dict(zip(("wall_s", "job_p50_ms", "job_p90_ms"),
                   timings(passes, scaled=False)), setup_s=raw_setup_s)
    summary = {
        "jobs": len(jobs), "passes": len(passes),
        "fail_ratio": outcomes.failed / outcomes.attempted,
        "raw": raw,
        "calibration_median_s": statistics.median(
            c for r in passes for _, c, _ in r),
        "job_ms": {j.id: round(t * 1e3, 3)
                   for j, t in zip(jobs, job_times(passes))},
        "pass_job_raw_s": [[round(t, 6) for t, _, _ in r] for r in passes],
        "pass_cal_s": [[round(c, 7) for _, c, _ in r] for r in passes],
    }
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, report_bytes = run_pass(wl, jobs, outcomes, tracer.call,
                                            tracer)
        finally:
            tracer.uninstall()
        overhead = timings([traced])[0] / metrics["wall_s"]["value"]
        metrics = per_layer(tracer, report_bytes, overhead, src_lines)
        summary["layer_shares"] = layer_shares(tracer)
        summary["spans"] = len(tracer.span_name)
        tracer.write(os.path.join(WORK, f"spans-{wl.name}-seed{args.seed}.csv.gz"))

    result = {
        "correct": outcomes.unexpected == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }
    summary.update(failures=outcomes.by_class, examples=outcomes.examples,
                   reference_jobs=len(outcomes.reference),
                   peak_rss_mb=resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024)
    with open(os.path.join(WORK, f"result-{wl.name}-seed{args.seed}-"
                                 f"trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "src_lines": src_lines, "summary": summary,
                   "result": result}, fh, indent=1)

    print(f"{wl.name} seed {args.seed}: {len(jobs)} jobs x {len(passes)} passes, "
          f"fail_ratio {summary['fail_ratio']:.4f} "
          f"({outcomes.failed}/{outcomes.attempted}), failures {outcomes.by_class}")
    for cls, example in outcomes.examples.items():
        print(f"  {cls}: e.g. {example}")
    if args.trace:
        print("layer shares of traced self time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in summary["layer_shares"].items()))
    for name, m in metrics.items():
        if not name.startswith("src."):
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("raw, unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
          + f"; calibration median {summary['calibration_median_s'] * 1e3:.4f} ms"
          f" (reference {CAL_REF_S * 1e3:.4f} ms)")
    print("env " + json.dumps(env, sort_keys=True))
    print("src_lines " + json.dumps(src_lines, sort_keys=True))
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lt_dense", "tower", "cli_mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="a few cheap jobs, one pass, one set-up probe")
    parser.add_argument("--record-reference", action="store_true",
                        help="store output digests for this seed")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    lib = import_library()
    wl = lib.WORKLOADS[args.workload]
    if args.setup_probe:
        wl.generate(args.seed, args.setup_probe)
        print("ready", flush=True)
        return 0
    os.makedirs(WORK, exist_ok=True)
    rundir = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        if args.record_reference:
            record_reference(args, lib, wl, rundir)
        else:
            benchmark(args, lib, wl, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
