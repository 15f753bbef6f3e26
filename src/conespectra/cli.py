"""Batch command-line front-end: reads a JSON config, runs the requested
pipeline, and emits a versioned JSON report plus a plain-text summary.

Reports are deterministic for a fixed config: keys are sorted and no
timestamps or machine identifiers enter the output.

The green module is imported by the green command on first use, so the
other commands never load it.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, bidiff, cone, smatrix
from .curveperiods import (
    SurfacePoint,
    curve_from_json,
    curve_to_json,
    json_complex,
    json_int,
    make_curve,
    metric_area,
    period_data,
)
from .errors import (
    BaseOnBranchPoint,
    ConeSpectraError,
    ConsistencyFailure,
    DomainError,
    DuplicateBranchPoints,
    NonConvergence,
    NotABranchPoint,
)
from .numerics import QuadratureConfig, _radii

SCHEMA = "cone-spectra/1"
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_INTERNAL = 4

_VALIDATION_ERRORS = (DuplicateBranchPoints, BaseOnBranchPoint,
                      NotABranchPoint, DomainError)


def _check(name, value, tol):
    return {"name": name, "value": float(value), "tolerance": float(tol),
            "passed": bool(value <= tol)}


def _count(value, what):
    """A config entry that must be a positive whole number."""
    n = json_int(value, what)
    if n < 1:
        raise DomainError(f"{what} must be a positive integer, got {value!r}")
    return n


def _quad_config(cfg):
    grid = cfg.get("surface_grid")
    if grid is None:
        return QuadratureConfig()
    if len(grid) not in (2, 3):
        raise DomainError("surface_grid needs two or three entries")
    radius = None if len(grid) < 3 or grid[2] is None else float(grid[2])
    if radius is not None and not np.isfinite(radius):
        raise DomainError(f"surface_grid radius must be finite, got {radius}")
    return QuadratureConfig(surface_grid=(
        _count(grid[0], "surface_grid radial count"),
        _count(grid[1], "surface_grid angular count"), radius))


# stages built once per run() and shared by its commands; None outside run()
_stages = None


def _stage(name, build):
    if _stages is None:
        return build()
    if name not in _stages:
        _stages[name] = build()
    return _stages[name]


def _surface_grid(cfg):
    return _stage("surface_grid", lambda: _quad_config(cfg))


def _period_data(cfg):
    if "curve" not in cfg:
        raise DomainError("config lacks a 'curve' entry")
    return _stage("period_data", lambda: period_data(
        *curve_from_json(cfg["curve"])))


def _model(cfg, pd=None):
    if pd is None:
        return _stage("model", lambda: _model(cfg, _period_data(cfg)))
    model = bidiff.normalize_bidifferential(pd.curve, pd)
    frame = bidiff.distinguished_frame(
        pd.curve, pd, pd.cone_point,
        order=_count(cfg.get("series_order", 20), "series_order"))
    model = bidiff.h_expansion(
        model, frame, order=_count(cfg.get("h_order", 8), "h_order"))
    bidiff.projective_connections(model)
    return model, frame


def cmd_periods(cfg, tol_scale=1.0):
    pd = _period_data(cfg)
    b = pd.Bmat
    sym = float(np.abs(b - b.T).max())
    eig = np.linalg.eigvalsh((b.imag + b.imag.T) / 2.0)
    anorm = float(np.abs(pd.C @ pd.A - np.eye(2)).max())

    # area stability probed on a fixed fine grid and its doubling; the
    # sqrt-weight charts need that resolution before Gauss accuracy sets in
    area1, area2 = (metric_area(pd.curve, pd.cone_point, QuadratureConfig(
        surface_grid=grid)) for grid in ((96, 128, None), (192, 256, None)))
    checks = [
        _check("period_matrix_symmetry", sym, 1e-8 * tol_scale),
        _check("a_period_normalization", anorm, 1e-8 * tol_scale),
        _check("area_grid_stability", abs(area2 - area1), 1e-4 * tol_scale),
        {"name": "im_b_positive_definite", "value": float(eig.min()),
         "tolerance": 0.0, "passed": bool(eig.min() > 0)},
    ]
    return {
        "curve": curve_to_json(pd.curve, pd.cone_point),
        "period_matrix": [[json_complex(z) for z in row] for row in b],
        "area": area2,
        "area_error_estimate": abs(area2 - area1),
        "checks": checks,
    }


def cmd_smatrix(cfg, tol_scale=1.0):
    model, _ = _model(cfg)
    sm = smatrix.t_matrix_zero(model)
    rep = smatrix.report(sm, tol=1e-6 * tol_scale)
    rep["checks"] = [
        _check("normalized_detP0_weierstrass", rep["normalized_detP0"],
               1e-6 * tol_scale),
        _check("detT0_imag_residual",
               rep["audit"]["detT0_imag_residual"], 1e-8 * tol_scale),
    ]
    return rep


def cmd_cone(cfg, tol_scale=1.0):
    lams = cfg.get("lambdas", [-1.0, -2.0, -4.0, -8.0])
    rows = []
    for lam in lams:
        lam = float(lam)
        e = cone.asymptotic_entries(lam)      # raises DomainError if > -1
        rows.append({"lambda": lam, "s1": e.s1, "s2": e.s2,
                     "detT_asym": e.det_t, "detP_asym": e.det_p})
    gamma_gap = abs(cone.C1 * cone.C2 - cone.DET_P_SLOPE)
    return {
        "entries": rows,
        "c1": cone.C1,
        "c2": cone.C2,
        "checks": [_check("gamma_identity_c1_c2", gamma_gap,
                          1e-10 * tol_scale)],
    }


# a green point may lie at most this many curve scales from the
# branch-point centre: there the product of its six distances to the
# branch points stays finite (about 1e300 scale^6), as do its squared
# distances to the grid nodes
_POINT_REACH = 1e50


def _points(cfg, curve):
    pts = cfg.get("points")
    if not pts or len(pts) < 2:
        raise DomainError("green command needs at least two points")
    out = []
    for p in pts:
        if not isinstance(p, dict):
            raise DomainError(f"a point must be an object, got {p!r}")
        sheet = json_int(p.get("sheet", 1), "a point's sheet")
        if sheet not in (1, -1):
            raise DomainError(f"a point's sheet must be 1 or -1, got {sheet}")
        lam = p["lam"]
        if len(lam) != 2 or not np.isfinite(complex(*lam)):
            raise DomainError(
                f"a point's lam must be a finite [re, im], got {lam!r}")
        lam = complex(lam[0], lam[1])
        reach = _POINT_REACH * curve.scale
        if not abs(lam - complex(curve.branch_points.mean())) <= reach:
            raise DomainError(f"a point's lam must lie within {reach:.3g} of "
                              f"the branch-point centre, got {lam!r}")
        out.append(SurfacePoint(lam, sheet))
    return out


def _grid_within_reach(cfg, curve):
    """The config's surface grid, refused if its outermost nodes lie over
    _POINT_REACH curve scales from the branch-point centre, the reach a
    point has: they lie at radius / f from it, f the smallest radius of
    the exterior chart over a unit disk."""
    quad = _surface_grid(cfg)
    n_rad, _, radius = quad.surface_grid
    reach = _POINT_REACH * curve.scale
    if radius is not None \
            and radius > _radii(0.0, 1.0, n_rad)[0].min() * reach:
        raise DomainError(f"surface_grid radius {radius:.3g} puts grid nodes "
                          f"over {reach:.3g} from the branch-point centre")
    return quad


def cmd_green(cfg, tol_scale=1.0):
    from . import green

    model, frame = _model(cfg)
    pts = _points(cfg, model.curve)
    x, y = pts[0], pts[1]
    ctx = green.green_context(model, frame,
                              _grid_within_reach(cfg, model.curve))
    sol_y = green.GreenSolver(ctx, y)
    g_xy = sol_y.green(x)
    g_yx = green.GreenSolver(ctx, x).green(y)
    match = green.coefficient_matching(sol_y)
    berg = green.bergman_consistency(sol_y, x)
    m1, m2 = green.special_solution_means(ctx)
    rl = green.reg_log_limit(sol_y)
    g1, g2 = sol_y.special_solutions()
    e2_gap = abs(rl - 2.0 * np.pi * match["g0"]) / max(abs(rl), 1e-30)
    bridge = green.smatrix_expansion_check(ctx)
    t0 = smatrix.t_matrix_zero(model).T0
    c1, c2 = bridge["coeffs_1"], bridge["coeffs_2"]
    sing_gap = max(abs(bridge["sing_1"] - 1.0), abs(bridge["sing_2"] - 1.0),
                   abs(bridge["spurious_1"]), abs(bridge["spurious_2"]))
    # the conjugate sector comes out negated (smatrix_expansion_check)
    t0_gap = max(abs(c1["xi"] - t0[0, 0]), abs(c1["xi2"] - t0[1, 0]),
                 abs(c2["xi2"] - t0[1, 1]), abs(c1["conj_xi"] + t0[2, 0]),
                 abs(c2["conj_xi2"] + t0[3, 1])) / np.abs(t0).max()
    evals = [g_xy if p is x else sol_y.green(p) for p in pts
             if abs(p.lam - y.lam) > 1e-10 * model.curve.scale]
    values = [{"x": json_complex(g.x.lam), "x_sheet": g.x.sheet,
               "value": g.value, "error_estimate": g.error_estimate}
              for g in evals]
    return {
        "y": {"lam": json_complex(y.lam), "sheet": y.sheet},
        "green_values": values,
        "reg_log_limit": rl,
        "special_solution_xi": json_complex(g1),
        "special_solution_xi2": json_complex(g2),
        "checks": [
            _check("symmetry", abs(g_xy.value - g_yx.value),
                   1e-2 * tol_scale),
            _check("special_solution_means", max(abs(m1), abs(m2)),
                   1e-6 * tol_scale),
            _check("coefficient_matching_xi", match["rel_err_xi"],
                   0.1 * tol_scale),
            _check("coefficient_matching_xi2", match["rel_err_xi2"],
                   0.1 * tol_scale),
            _check("reg_log_vs_fit", e2_gap, 0.1 * tol_scale),
            _check("bergman_consistency", berg["rel_err"],
                   0.05 * tol_scale),
            _check("expansion_singular", sing_gap, 1e-6 * tol_scale),
            _check("expansion_vs_t0", t0_gap, 1e-3 * tol_scale),
        ],
    }


def cmd_z5_audit(cfg, tol_scale=1.0):
    model, _ = _model(cfg)
    curve, cone_point = model.curve, model.periods.cone_point
    sm = smatrix.t_matrix_zero(model)
    rep = smatrix.report(sm, tol=1e-6 * tol_scale)
    scale = float(np.abs(sm.T0).max())
    s_sch = abs(model.jets["s_sch"])
    entries = {
        "S_Sch(0)": s_sch,
        "T11": abs(sm.T0[0, 0]),
        "T12": abs(sm.T0[0, 1]),
        "T21": abs(sm.T0[1, 0]),
        "T22": abs(sm.T0[1, 1]),
        "T41": abs(sm.T0[3, 0]),
    }
    checks = [_check(f"vanishing_{k}", v, 1e-6 * tol_scale * max(scale, 1.0))
              for k, v in entries.items()]
    checks.append(_check("normalized_detT0", rep["normalized_detT0"],
                         1e-6 * tol_scale))

    # the dimension-3 signature must be lifted by a branch-point move
    shift = float(cfg.get("perturbation", 0.05))
    bp = list(curve.branch_points.copy())
    bp[(cone_point + 3) % 6] += shift
    model2, _ = _model(cfg, period_data(make_curve(bp), cone_point))
    sm2 = smatrix.t_matrix_zero(model2)
    ndet2 = smatrix.normalized_det(sm2)
    checks.append({"name": "perturbation_lifts_degeneracy",
                   "value": float(ndet2), "tolerance": 1e-3,
                   "passed": bool(ndet2 > 1e-3)})
    rep["z5_entries"] = entries
    rep["perturbed_normalized_detT0"] = float(ndet2)
    rep["checks"] = checks
    return rep


_COMMANDS = {
    "periods": cmd_periods,
    "smatrix": cmd_smatrix,
    "cone": cmd_cone,
    "green": cmd_green,
    "z5-audit": cmd_z5_audit,
}


def _summary(report):
    lines = [f"cone-spectra {report['version']}"]
    for name, res in report["results"].items():
        lines.append(f"[{name}]")
        if name == "periods":
            lines.append(f"  area = {res['area']:.10g} "
                         f"(+/- {res['area_error_estimate']:.2e})")
        if name == "cone":
            for row in res["entries"]:
                lines.append(f"  lambda={row['lambda']:g}  "
                             f"s1={row['s1']:.8g}  s2={row['s2']:.8g}  "
                             f"detP={row['detP_asym']:.8g}")
        if "classification" in res:
            lines.append(f"  classification: {res['classification']}")
        for c in res.get("checks", []):
            tag = "PASS" if c["passed"] else "FAIL"
            lines.append(f"  {tag}  {c['name']}: {c['value']:.3e} "
                         f"(tol {c['tolerance']:.1e})")
    return "\n".join(lines)


def run(cfg, commands, tol_scale=1.0):
    global _stages
    results = {}
    _stages = {}
    try:
        # every command checks the grid entry, used or not
        _surface_grid(cfg)
        for name in commands:
            if name not in _COMMANDS:
                raise DomainError(f"unknown command '{name}'")
            try:
                results[name] = _COMMANDS[name](cfg, tol_scale)
            except ConeSpectraError as exc:
                exc.command = name
                raise
    finally:
        _stages = None
    echo = {k: v for k, v in cfg.items() if k != "out"}
    return {
        "schema": SCHEMA,
        "version": __version__,
        "config": echo,
        "tol_scale": tol_scale,
        "results": results,
    }


def _failure(exc):
    """Exit-3/4 message: the error, the command that raised it (run
    records it on the error) and the error's own message."""
    where = f" in {exc.command}" if hasattr(exc, "command") else ""
    return f"error: {type(exc).__name__}{where}: {exc}"


def _tol_scale(text):
    """--tol-scale: a positive finite factor."""
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text}")
    return value


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="cone-spectra",
        description="numerical audits of genus-2 cone-surface spectra")
    ap.add_argument("--config", required=True, help="path to a JSON config")
    ap.add_argument("--command", action="append",
                    choices=sorted(_COMMANDS),
                    help="pipeline to run (repeatable; default: config "
                         "'commands' entry)")
    ap.add_argument("--out", help="write the JSON report here")
    ap.add_argument("--tol-scale", type=_tol_scale, default=1.0,
                    help="multiply every check tolerance by this factor")
    args = ap.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if not isinstance(cfg, dict):
        print("error: the config must be a JSON object", file=sys.stderr)
        return EXIT_VALIDATION

    commands = args.command or cfg.get("commands")
    if not commands:
        print("error: no command given (use --command or config "
              "'commands')", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        report = run(cfg, commands, args.tol_scale)
    except (_VALIDATION_ERRORS + (KeyError, TypeError, ValueError)) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NonConvergence as exc:
        print(_failure(exc), file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ConsistencyFailure, ConeSpectraError) as exc:
        print(_failure(exc), file=sys.stderr)
        return EXIT_INTERNAL

    blob = json.dumps(report, sort_keys=True, indent=2)
    out = args.out or cfg.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)
    print(_summary(report), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
