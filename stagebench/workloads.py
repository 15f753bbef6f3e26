"""The four stage workloads.

Each workload has a ``setup`` (state built before timing), ``make_input``
(the op's inputs, generated from the run seed and the op index only), ``op``
(the timed call into the library), ``check`` (run outside the timed region;
returns ``None`` or the failure cause) and ``finish`` (once-per-run calls and
their checks). Library calls go through module attributes so the tracer's
wrappers are used when installed. README.md gives the reason for each
workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

from conespectra import bidiff, cli, cone, curveperiods, green, smatrix
from conespectra.numerics import QuadratureConfig

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")
OUT_DIR = ".stagebench_out"

GENERIC_BP = [0, 1, 0.3 + 1.1j, -0.8 + 0.7j, -1.1 - 0.4j, 0.5 - 0.9j]
GREEN_GRID = QuadratureConfig(surface_grid=(12, 16, None))
GREEN_QUERY_Y = curveperiods.SurfacePoint(0.45 - 0.35j, 1)
CLI_COMMANDS = ["periods", "smatrix", "cone", "z5-audit"]
# the cone command's lambdas; each variant has its own reference report
CLI_LAMBDA_VARIANTS = [[-1.0, -4.0], [-2.0, -8.0, -32.0], [-1.5, -3.0],
                       [-1.0, -2.0, -4.0, -8.0]]


def op_rng(seed, i):
    return np.random.default_rng([int(seed), int(i)])


def build_model(curve, cone_point):
    pd = curveperiods.period_data(curve, cone_point)
    model = bidiff.normalize_bidifferential(curve, pd)
    frame = bidiff.distinguished_frame(curve, pd, cone_point, order=20)
    model = bidiff.h_expansion(model, frame, order=8)
    bidiff.projective_connections(model)
    return model, frame


def random_point(rng, curve, avoid=(), clearance=0.15, box=1.5):
    """Point in [-box, box]^2 at least ``clearance`` from every branch point
    and from the points in ``avoid``, on a random sheet."""
    blocked = np.concatenate([curve.branch_points,
                              np.asarray(avoid, dtype=complex)])
    while True:
        lam = complex(*rng.uniform(-box, box, 2))
        if np.abs(blocked - lam).min() >= clearance:
            return curveperiods.SurfacePoint(lam, int(rng.choice([1, -1])))


def _check_value(name, value, tol):
    return None if value <= tol else f"{name} {value:.3e} > {tol:g}"


class Workload:
    name = ""
    # False when the op's work runs in a child process
    in_process = True
    # op used by traced runs (both halves of each pair); None = op
    inprocess_op = None

    def setup(self, seed):
        return None

    def make_input(self, state, seed, i):
        raise NotImplementedError

    def op(self, state, inp):
        raise NotImplementedError

    def check(self, state, inp, out):
        return None

    def finish(self, state, seed):
        """Once-per-run calls; returns a list of (check name, cause)."""
        return []

    def counts(self, state, out):
        """Deterministic per-layer counts, from the state and the last
        op's output."""
        return {}


class SpectralSweep(Workload):
    """period data, jets, T(0) and cone asymptotics of one curve per op."""

    name = "spectral-sweep"

    def make_input(self, state, seed, i):
        rng = op_rng(seed, i)
        base = (curveperiods.make_z5_curve(0.0, 1.0).branch_points
                if i % 2 == 0 else np.asarray(GENERIC_BP, dtype=complex))
        radius = 0.03 * np.sqrt(rng.uniform(size=6))
        bp = base + radius * np.exp(2j * np.pi * rng.uniform(size=6))
        lams = -(1.0 + 15.0 * rng.uniform(size=4))
        return curveperiods.make_curve(bp), i % 6, lams

    def op(self, state, inp):
        curve, cone_point, lams = inp
        pd = curveperiods.period_data(curve, cone_point)
        model = bidiff.normalize_bidifferential(curve, pd)
        frame = bidiff.distinguished_frame(curve, pd, cone_point, order=20)
        model = bidiff.h_expansion(model, frame, order=8)
        bidiff.projective_connections(model)
        sm = smatrix.t_matrix_zero(model)
        rep = smatrix.report(sm)
        entries = [cone.asymptotic_entries(float(lam)) for lam in lams]
        return pd, rep, entries

    def check(self, state, inp, out):
        pd, rep, entries = out
        b = pd.Bmat
        eig = np.linalg.eigvalsh((b.imag + b.imag.T) / 2.0)
        if not eig.min() > 0:
            return "im_b_not_positive_definite"
        gamma_gap = max(abs(e.s1 * e.s2 - e.det_p) / abs(e.det_p)
                        for e in entries)
        return (_check_value("period_matrix_symmetry",
                             float(np.abs(b - b.T).max()), 1e-8)
                or _check_value("a_period_normalization",
                                float(np.abs(pd.C @ pd.A - np.eye(2)).max()),
                                1e-8)
                or _check_value("detT0_imag_residual",
                                rep["audit"]["detT0_imag_residual"], 1e-8)
                or _check_value("cone_s1_s2_vs_detP", gamma_gap, 1e-10))


class GreenBuild(Workload):
    """green_context plus two GreenSolvers per op on the generic curve."""

    name = "green-build"

    def setup(self, seed):
        curve = curveperiods.make_curve(GENERIC_BP)
        model, frame = build_model(curve, 2)
        return {"curve": curve, "model": model, "frame": frame}

    def make_input(self, state, seed, i):
        rng = op_rng(seed, i)
        y1 = random_point(rng, state["curve"])
        y2 = random_point(rng, state["curve"], avoid=[y1.lam])
        return y1, y2

    def op(self, state, inp):
        ctx = green.green_context(state["model"], state["frame"], GREEN_GRID)
        return ctx, [green.GreenSolver(ctx, y) for y in inp]

    def check(self, state, inp, out):
        ctx, (s1, s2) = out
        m1, m2 = green.special_solution_means(ctx)
        sym = abs(s1.green(inp[1]).value - s2.green(inp[0]).value)
        return (_check_value("special_solution_means",
                             max(abs(m1), abs(m2)), 1e-6)
                or _check_value("symmetry", sym, 1e-2))

    def counts(self, state, out):
        return {"green.nodes": out[0].q_grid.n_nodes}


class GreenQuery(Workload):
    """One GreenSolver.green(x) per op on a prebuilt z5 solver.

    The query points come from the pool stored with the reference values,
    so every seed's outputs can be checked; the seed picks which pool points
    are queried and in what order."""

    name = "green-query"

    def setup(self, seed):
        curve = curveperiods.make_z5_curve(0.0, 1.0)
        model, frame = build_model(curve, 0)
        ctx = green.green_context(model, frame, GREEN_GRID)
        solver = green.GreenSolver(ctx, GREEN_QUERY_Y)
        return {"curve": curve, "ctx": ctx, "solver": solver,
                "pool": load_green_reference()["pool"]}

    def make_input(self, state, seed, i):
        # successive seeded permutations of the pool: every run queries
        # each pool point about equally often
        pool = state["pool"]
        n_pass, k = divmod(i, len(pool))
        perm = op_rng(seed, n_pass).permutation(len(pool))
        re, im, sheet, value, err = pool[perm[k]]
        return curveperiods.SurfacePoint(complex(re, im), int(sheet)), value

    def op(self, state, inp):
        return state["solver"].green(inp[0])

    def check(self, state, inp, out):
        # 1e-12 absorbs last-digit differences between machines
        gap = abs(out.value - inp[1])
        if gap <= out.error_estimate + 1e-12:
            return None
        return (f"green_vs_reference {gap:.3e} > error estimate "
                f"{out.error_estimate:.3e}")

    def finish(self, state, seed):
        ctx, solver = state["ctx"], state["solver"]
        x = self.make_input(state, seed, 0)[0]
        out = []
        for l in (1, 2):
            v = green.special_solution_zero(ctx, l, solver.y)
            out.append((f"special_solution_zero_l{l}",
                        None if np.isfinite(v) else f"value {v!r}"))
        berg = green.bergman_consistency(solver, x)
        out.append(("bergman_consistency",
                    _check_value("bergman_consistency", berg["rel_err"],
                                 0.05)))
        match = green.coefficient_matching(solver)
        for key in ("rel_err_xi", "rel_err_xi2"):
            out.append((f"coefficient_matching_{key}",
                        _check_value(key, match[key], 0.1)))
        return out

    def counts(self, state, out):
        return {"green.nodes": state["ctx"].q_grid.n_nodes}


class CliBatch(Workload):
    """One fresh ``python -m conespectra.cli`` process per op, run in turn."""

    name = "cli-batch"
    in_process = False

    def setup(self, seed):
        state = write_cli_configs()
        state["refs"] = []
        for k in range(len(CLI_LAMBDA_VARIANTS)):
            with open(cli_reference_path(k), "rb") as fh:
                state["refs"].append(fh.read())
        state["known_red"] = [red_checks(r) for r in state["refs"]]
        return state

    def make_input(self, state, seed, i):
        return int(op_rng(seed, i).integers(len(CLI_LAMBDA_VARIANTS)))

    def _out_path(self, state):
        path = os.path.join(state["work"], "report.json")
        if os.path.exists(path):
            os.remove(path)
        return path

    def op(self, state, k):
        out = self._out_path(state)
        proc = subprocess.run(
            [sys.executable, "-m", "conespectra.cli",
             "--config", state["configs"][k], "--out", out],
            env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=150)
        return proc.returncode, out, proc.stderr

    def inprocess_op(self, state, k):
        out = self._out_path(state)
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["--config", state["configs"][k], "--out", out])
        return code, out, b""

    def check(self, state, k, out):
        code, path, stderr = out
        if code != 0:
            return f"exit_code_{code}"
        with open(path, "rb") as fh:
            blob = fh.read()
        if red_checks(blob) > state["known_red"][k]:
            return "known_red_count_rose"
        if blob != state["refs"][k]:
            return "report_differs_from_reference"
        return None


WORKLOADS = {w.name: w for w in (SpectralSweep(), GreenBuild(), GreenQuery(),
                                 CliBatch())}


# ---------------------------------------------------------------------------
# subprocess environment and stored references
# ---------------------------------------------------------------------------

def child_env():
    """Environment for child interpreters: the checkout's sources first,
    thread pinning inherited from this process."""
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def write_cli_configs():
    """One CLI config file per lambdas variant, in the output directory."""
    work = os.path.join(os.getcwd(), OUT_DIR, "cli")
    os.makedirs(work, exist_ok=True)
    configs = []
    for k, lams in enumerate(CLI_LAMBDA_VARIANTS):
        configs.append(os.path.join(work, f"config{k}.json"))
        with open(configs[k], "w") as fh:
            json.dump({"curve": {"z5": {"lambda1": [0.0, 0.0], "r": 1.0},
                                 "cone_point": 0},
                       "surface_grid": [12, 16],
                       "commands": CLI_COMMANDS,
                       "lambdas": lams}, fh)
    return {"work": work, "configs": configs}


def cli_reference_path(k):
    return os.path.join(REFERENCE_DIR, f"cli_batch_{k}.json")


def red_checks(blob):
    """Number of report checks that did not pass."""
    report = json.loads(blob)
    return sum(not c["passed"] for res in report["results"].values()
               for c in res.get("checks", []))


def green_reference_path():
    return os.path.join(REFERENCE_DIR, "green_query.json")


def load_green_reference():
    with open(green_reference_path()) as fh:
        return json.load(fh)


def write_references(pool_size=256, pool_seed=20190208):
    """Regenerate the stored references from the current program."""
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    state = write_cli_configs()
    for k in range(len(CLI_LAMBDA_VARIANTS)):
        code, out, stderr = WORKLOADS["cli-batch"].op(state, k)
        if code != 0:
            raise RuntimeError(f"cli exited with {code}: {stderr.decode()}")
        with open(out, "rb") as src, open(cli_reference_path(k), "wb") as dst:
            dst.write(src.read())

    curve = curveperiods.make_z5_curve(0.0, 1.0)
    model, frame = build_model(curve, 0)
    ctx = green.green_context(model, frame, GREEN_GRID)
    solver = green.GreenSolver(ctx, GREEN_QUERY_Y)
    rng = np.random.default_rng(pool_seed)
    pool = []
    for _ in range(pool_size):
        x = random_point(rng, curve, avoid=[GREEN_QUERY_Y.lam], clearance=0.12,
                         box=1.6)
        g = solver.green(x)
        pool.append([x.lam.real, x.lam.imag, x.sheet, g.value,
                     g.error_estimate])
    with open(green_reference_path(), "w") as fh:
        json.dump({"y": [GREEN_QUERY_Y.lam.real, GREEN_QUERY_Y.lam.imag,
                         GREEN_QUERY_Y.sheet],
                   "surface_grid": [12, 16],
                   "pool": pool}, fh, indent=1)
        fh.write("\n")
