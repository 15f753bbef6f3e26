"""Stage benchmark for cone-spectra.

Run from the root of a checkout:

    python3 stagebench/run.py --workload green-query --seed 1 --seconds 20 --trace 0
    python3 stagebench/run.py --all [--seconds 20] [--seed 0] [--out FILE]
    python3 stagebench/run.py --smoke
    python3 stagebench/run.py --selftest
    python3 stagebench/run.py --write-reference

One run prints its metrics by name with units, then, as the last line, a
JSON object with the keys correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
--all runs every workload, untraced and traced, each in its own process, and
prints one table. --smoke does the same with one-second runs and checks the
output against BENCHMARK.json; --selftest checks the benchmark's own code.
BLAS and OpenMP threads are pinned to one before NumPy is imported.
"""

import argparse
import json
import os
import subprocess
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

WORKLOAD_NAMES = ("spectral-sweep", "green-build", "green-query", "cli-batch")
HERE = os.path.dirname(os.path.abspath(__file__))


def _checkout_src():
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "conespectra", "__init__.py")):
        return None
    return src


def _child(args):
    """Run this script in a fresh process; returns its exit code."""
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], timeout=900).returncode


def run_all(seed, seconds, out=None):
    """Every workload, untraced then traced, each in its own process."""
    import harness

    table, ok = {}, True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            code = _child(["--workload", name, "--seed", str(seed),
                              "--seconds", str(seconds),
                              "--trace", str(trace)])
            path = harness.result_path(name, seed, trace)
            if code != 0 or not os.path.exists(path):
                print(f"error: {name} trace {trace} exited with {code}",
                      file=sys.stderr)
                ok = False
                continue
            with open(path) as fh:
                table.setdefault(name, {})[f"trace{trace}"] = json.load(fh)
            ok = ok and table[name][f"trace{trace}"]["correct"]
    _print_table(table)
    if out:
        with open(out, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
    return table, ok


def _print_table(table):
    names = list(table)
    print("\n" + f"{'metric':<38}" + "".join(f"{n:>16}" for n in names))

    def row(label, getter):
        cells = []
        for n in names:
            try:
                cells.append(getter(table[n]))
            except (KeyError, TypeError):
                cells.append("-")
        print(f"{label:<38}" + "".join(f"{c:>16}" for c in cells))

    first = next(iter(table.values()), {})
    for trace in ("trace0", "trace1"):
        for metric, m in first.get(trace, {}).get("metrics", {}).items():
            row(f"{metric} [{m['unit']}]",
                lambda d, t=trace, k=metric: f"{d[t]['metrics'][k]['value']:.6g}")
        if trace == "trace0":
            row("op_ms_tail [ms]", lambda d: "p{percentile:g} n={samples} "
                "{value:.4g}".format(**d["trace0"]["op_ms_tail"]))
            row("failed_frac [frac]",
                lambda d: f"{d['trace0']['failed_frac']:.6g}")
            row("failures", lambda d: ",".join(
                f"{k}={v}" for k, v in d["trace0"]["failures_by_cause"].items())
                or "none")


def smoke(seconds=1):
    """Short runs of every workload; every metric named in BENCHMARK.json
    must be present with its unit, and every run correct."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    table, ok = run_all(0, seconds)
    problems = [] if ok else ["a run failed or was not correct"]
    for name in spec["workloads"]:
        if name["name"] not in table:
            problems.append(f"workload {name['name']} not run")
    for wname, runs in table.items():
        for trace, key in (("trace0", "end_to_end"), ("trace1", "per_layer")):
            got = runs.get(trace, {}).get("metrics", {})
            want = {m["name"]: m["unit"] for m in spec[key]}
            if set(got) != set(want):
                problems.append(f"{wname} {trace}: metric names differ: "
                                f"{sorted(set(got) ^ set(want))}")
            for m, unit in want.items():
                if m in got and got[m]["unit"] != unit:
                    problems.append(f"{wname} {trace}: {m} unit "
                                    f"{got[m]['unit']} != {unit}")
    for p in problems:
        print("smoke: " + p)
    print("smoke: " + ("pass" if not problems else "FAIL"))
    return 0 if not problems else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--out", help="with --all: write the table as JSON here")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    src = _checkout_src()
    if src is None:
        print("error: run from the root of a cone-spectra checkout "
              "(src/conespectra not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    if args.selftest:
        import selftest
        return selftest.main()
    if args.smoke:
        return smoke()
    if args.all:
        return 0 if run_all(args.seed, args.seconds, args.out)[1] else 1
    if args.write_reference:
        import workloads
        workloads.write_references()
        return 0
    if args.workload is None:
        ap.error("one of --workload, --all, --smoke, --selftest or "
                 "--write-reference is required")

    import harness
    detail = harness.run(args.workload, args.seed, args.seconds, args.trace)
    harness.print_run(detail)
    print(json.dumps({"correct": detail["correct"],
                      "attempted": detail["attempted"],
                      "failed": detail["failed"],
                      "metrics": detail["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
