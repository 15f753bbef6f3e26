"""Run loop, metrics and environment record of the stage benchmark.

An untraced run sets up several times (each time: imports timed in a fresh
interpreter, then the workload's state), runs operations until ``seconds``
have passed, checks every output outside the timed region, and reports the
end-to-end metrics, with in-process times scaled to a reference machine
speed (see speed.py). A traced run sets up once under the tracer, then
alternates an untraced and a traced execution of each input (the order
flips every second op), and reports the per-layer metrics, the tracing
overhead and how much of the op time the module self times account for.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import numpy as np
import scipy

import tracer as tracing
import workloads
from speed import SpeedProbe
from conespectra import _core

# set-up runs at least SETUP_MIN times, and up to SETUP_MAX times while the
# raw set-up time so far stays under SETUP_BUDGET_S
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 6.0
IMPORT_STMT = "import conespectra.cli"
OUT_DIR = workloads.OUT_DIR
LAYERS = ("curveperiods", "numerics", "bidiff", "smatrix", "cone", "green",
          "cli", "core")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
              "peak_rss_mb": "MB", "ok_frac": "frac"}

# (span name, fields); each becomes "<span name>.<field>"
SPAN_METRICS = (
    ("curveperiods.period_data", ("s", "self_s", "calls")),
    ("curveperiods.loop_nodes", ("self_s", "calls")),
    ("numerics.integrate_surface", ("s", "calls")),
    ("numerics.build_surface_grid", ("s", "calls")),
    ("bidiff.normalize_bidifferential", ("s",)),
    ("bidiff.distinguished_frame", ("s",)),
    ("bidiff.h_expansion", ("s",)),
    ("bidiff.projective_connections", ("s",)),
    ("bidiff.bergman_kernel", ("s",)),
    ("smatrix.t_matrix_zero", ("s",)),
    ("smatrix.report", ("s",)),
    ("cone.asymptotic_entries", ("s",)),
    ("green.green_context", ("self_s",)),
    ("green.build_surface_tree", ("self_s",)),
    ("green.accumulate_tree", ("self_s",)),
    ("green.GreenSolver.__init__", ("self_s",)),
    ("green.integrate_vector_path", ("s", "calls")),
    ("green.GreenSolver.green", ("self_s",)),
    ("green.special_solution_zero", ("s",)),
    ("green.coefficient_matching", ("s",)),
    ("green.bergman_consistency", ("s",)),
    ("cli.cmd_periods", ("s",)),
    ("cli.cmd_smatrix", ("s",)),
    ("cli.cmd_cone", ("s",)),
    ("cli.cmd_z5_audit", ("s",)),
    ("core.bidiff_values", ("s", "calls")),
    ("core.third_kind_values", ("s", "calls")),
)
FIELD = {"s": 0, "self_s": 1, "calls": 2}


def per_layer_units():
    units = {}
    for span, fields in SPAN_METRICS:
        for f in fields:
            units[f"{span}.{f}"] = "count" if f == "calls" else "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({"import.conespectra_s": "s", "import.scipy_special_s": "s",
                  "green.nodes": "count", "trace.overhead_frac": "frac",
                  "trace.coverage_frac": "frac", "trace.spans_per_op": "count"})
    return units


PER_LAYER = per_layer_units()


# ---------------------------------------------------------------------------
# environment and imports
# ---------------------------------------------------------------------------

def environment(seed):
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "backend": _core.BACKEND,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "cpus_pinned": sorted(os.sched_getaffinity(0)),
            "thread_pinning": {k: v for k, v in sorted(os.environ.items())
                               if k.endswith("_THREADS")},
            "seed": seed}


def _python(args):
    proc = subprocess.run([sys.executable, *args], env=workloads.child_env(),
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"child interpreter failed: {proc.stderr[-400:]}")
    return proc


def import_seconds():
    """Wall time of the package imports in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); " + IMPORT_STMT
            + "; print(repr(time.perf_counter() - t))")
    return float(_python(["-c", code]).stdout.strip().splitlines()[-1])


def parse_importtime(text):
    """(conespectra total, scipy total) in seconds from ``-X importtime``
    output: the cumulative times of the outermost entries of each package.

    The only scipy import in the package is ``from scipy import special``
    (cone.py), and scipy's lazy loader logs scipy.special's submodules
    without a ``scipy.special`` entry, so the scipy total is its cost."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cum, name = line.split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip().split(".")[0], int(cum) * 1e-6))

    def outermost(package):
        mine = [(d, c) for d, top, c in entries if top == package]
        top_depth = min((d for d, _ in mine), default=0)
        return sum(c for d, c in mine if d == top_depth)

    return outermost("conespectra"), outermost("scipy")


def import_profile():
    return parse_importtime(_python(["-X", "importtime", "-c",
                                     IMPORT_STMT]).stderr)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail(values):
    """Highest candidate percentile with at least 10 samples beyond it, by
    nearest rank: (percentile, value, sample count), or None."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_CANDIDATES:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return p, xs[rank - 1], n
    return None


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _attempt(fn, *args):
    """Call fn at the harness boundary: (result, None) or (None, cause)."""
    try:
        return fn(*args), None
    except Exception as exc:  # every failure is counted, none is fatal
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return None, (f"{type(exc).__name__}: {exc} "
                      f"[{os.path.basename(where.filename)}:{where.lineno}]")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.causes = Counter()
        self.samples = {}

    def record(self, cause):
        self.attempted += 1
        if cause is None:
            return
        self.failed += 1
        key = cause.split(":")[0].split(" ")[0]
        self.causes[key] += 1
        self.samples.setdefault(key, cause)


def _checked(wl, state, inp, out, cause, tally):
    if cause is None:
        cause, err = _attempt(wl.check, state, inp, out)
        if err is not None:
            cause = f"check_raised: {err}"
    tally.record(cause)
    return cause is None


def _finish(wl, state, seed, tally):
    results, err = _attempt(wl.finish, state, seed)
    if err is not None:
        results = [("finish", err)]
    for name, cause in results:
        if cause is not None:
            tally.causes[f"run_check:{name}"] += 1
            tally.samples.setdefault(f"run_check:{name}", cause)
    return [{"name": n, "passed": c is None, "cause": c} for n, c in results]


def run_untraced(wl, seed, seconds):
    if not wl.in_process:
        # the parent idles while each child works; with both on one CPU the
        # children's times spread less. In-process runs stay unpinned: there
        # pinning made the speed scaling track the work worse.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    clock = time.perf_counter
    speed = SpeedProbe(clock)
    setups, setup_raw = [], []
    while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX
                                      and sum(setup_raw) < SETUP_BUDGET_S):
        t_import = import_seconds()
        state, raw, scaled = speed.timed(True, wl.setup, seed)
        setup_raw.append(t_import + raw)
        setups.append(t_import + scaled)
    tally, times, raw_times = Tally(), [], []
    t_end = clock() + seconds
    i = 0
    while i == 0 or clock() < t_end:
        inp = wl.make_input(state, seed, i)
        (out, cause), raw, scaled = speed.timed(wl.in_process, _attempt,
                                                wl.op, state, inp)
        if _checked(wl, state, inp, out, cause, tally):
            times.append(scaled)
            raw_times.append(raw)
        i += 1
    run_checks = _finish(wl, state, seed, tally)
    rss = resource.getrusage(resource.RUSAGE_SELF if wl.in_process
                             else resource.RUSAGE_CHILDREN).ru_maxrss
    ok = len(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ok / sum(times) if ok else 0.0,
        "op_ms_p50": 1e3 * statistics.median(times) if ok else 0.0,
        "peak_rss_mb": rss / 1024.0,
        "ok_frac": ok / tally.attempted,
    }
    t = tail(times)
    extra = {"op_ms_tail": None if t is None else
             {"percentile": t[0], "value": 1e3 * t[1], "samples": t[2]},
             "failed_frac": tally.failed / tally.attempted,
             "setup_samples_s": setups,
             "raw": {"setup_s": statistics.median(setup_raw),
                     "ops_per_s": ok / sum(raw_times) if ok else 0.0,
                     "op_ms_p50": 1e3 * statistics.median(raw_times)
                     if ok else 0.0,
                     "probe_ms_p50": 1e3 * statistics.median(speed.samples)}}
    return metrics, tally, run_checks, extra


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if name.startswith("conespectra.") and m is not None]


def run_traced(wl, seed, seconds):
    clock = time.perf_counter
    imp_total, imp_special = import_profile()
    tr = tracing.Tracer(clock)
    mods = _modules()
    with tr.installed(mods), tr.span("setup", "setup"):
        state = wl.setup(seed)
    op = wl.inprocess_op or wl.op
    tally = Tally()
    plain, traced = [], []
    last = None
    t_end = clock() + seconds
    i = 0
    while i == 0 or clock() < t_end:
        inp = wl.make_input(state, seed, i)
        for with_trace in ((False, True) if (i // 2) % 2 == 0
                           else (True, False)):
            if with_trace:
                with tr.installed(mods), tr.span("op", "op", op=i) as root:
                    out, cause = _attempt(op, state, inp)
                dt = root[tracing.END] - root[tracing.START]
            else:
                t0 = clock()
                out, cause = _attempt(op, state, inp)
                dt = clock() - t0
            if _checked(wl, state, inp, out, cause, tally):
                (traced if with_trace else plain).append(dt)
                last = out
        i += 1
    with tr.installed(mods), tr.span("extra", "extra"):
        run_checks = _finish(wl, state, seed, tally)
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.json")
    tr.dump(span_file, {"workload": wl.name, "env": environment(seed)})

    by_name, ops = tracing.aggregate(tr.spans)
    n_ops = max(len(ops), 1)
    metrics = {}
    for span, fields in SPAN_METRICS:
        entry = by_name.get(span, {})
        for f in fields:
            if "op" in entry:
                value = entry["op"][FIELD[f]] / n_ops
            else:
                value = entry.get("other", [0.0, 0.0, 0])[FIELD[f]]
            metrics[f"{span}.{f}"] = float(value)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    op_spans = 0
    for name, entry in by_name.items():
        if "op" in entry:
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + entry["op"][1]
            op_spans += entry["op"][2]
    for layer, total in layer_self.items():
        metrics[f"{layer}.self_s"] = total / n_ops
    op_total = sum(ops.values())
    metrics["import.conespectra_s"] = imp_total
    metrics["import.scipy_special_s"] = imp_special
    counts = wl.counts(state, last) if last is not None else {}
    metrics["green.nodes"] = float(counts.get("green.nodes", 0))
    metrics["trace.overhead_frac"] = (sum(traced) / sum(plain) - 1.0
                                      if plain and traced else 0.0)
    metrics["trace.coverage_frac"] = (sum(layer_self.values()) / op_total
                                      if op_total else 0.0)
    metrics["trace.spans_per_op"] = op_spans / n_ops
    extra = {"span_file": span_file, "traced_ops": len(ops),
             "op_ms_traced_p50": 1e3 * statistics.median(traced)
             if traced else None,
             "op_ms_untraced_p50": 1e3 * statistics.median(plain)
             if plain else None}
    return metrics, tally, run_checks, extra


def run(workload, seed, seconds, trace):
    wl = workloads.WORKLOADS[workload]
    runner = run_traced if trace else run_untraced
    metrics, tally, run_checks, extra = runner(wl, seed, seconds)
    units = PER_LAYER if trace else END_TO_END
    correct = tally.failed == 0 and all(c["passed"] for c in run_checks)
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": environment(seed), "correct": correct,
              "attempted": tally.attempted, "failed": tally.failed,
              "failures_by_cause": dict(tally.causes),
              "failure_samples": tally.samples, "run_checks": run_checks,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units},
              **extra}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(result_path(workload, seed, trace), "w") as fh:
        json.dump(detail, fh, indent=1)
    return detail


def result_path(workload, seed, trace):
    return os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}"
                                 ".json")


def print_run(detail):
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"seconds {detail['seconds']}  trace {detail['trace']}")
    print("env " + json.dumps(detail["env"], sort_keys=True))
    for name, m in detail["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    if not detail["trace"]:
        t = detail["op_ms_tail"]
        print("  op_ms_tail" + (
            f"{'':<30} {t['value']:>14.6g} ms  (p{t['percentile']:g} of "
            f"{t['samples']} ops)" if t else
            f"{'':<30} {'n/a':>14}     (fewer than 20 ops)"))
        print(f"  {'failed_frac':<40} {detail['failed_frac']:>14.6g} frac")
        for name, value in detail["raw"].items():
            print(f"  raw {name:<36} {value:>14.6g}  (unscaled)")
    print(f"  attempted {detail['attempted']}  failed {detail['failed']}  "
          f"correct {detail['correct']}")
    for cause, n in sorted(detail["failures_by_cause"].items()):
        print(f"  failure {cause}: {n}  ({detail['failure_samples'][cause]})")
    for c in detail["run_checks"]:
        print(f"  run check {c['name']}: "
              + ("pass" if c["passed"] else f"FAIL {c['cause']}"))
