"""Batch front-end: config parsing, reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conespectra
from conespectra import bidiff, cli
from conespectra.errors import ConsistencyFailure, NonConvergence

Z5_CFG = {
    "curve": {"z5": {"lambda1": [0.0, 0.0], "r": 1.0}, "cone_point": 0},
    "surface_grid": [12, 16],
}


def run_strict(cfg, out):
    """The CLI on the config file cfg in a fresh process, RuntimeWarnings
    raised as errors, its report to out."""
    src = os.path.dirname(os.path.dirname(conespectra.__file__))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "conespectra.cli", "--config", cfg, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300)


# byte-exact reports of the benchmark's cli-batch configs, one per cone
# lambdas list
REFERENCE_DIR = (Path(__file__).resolve().parents[1] / "stagebench"
                 / "reference")


def write_cfg(tmp_path, extra, name="cfg.json"):
    cfg = dict(Z5_CFG)
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def basic_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_cfg(tmp, {"commands": ["periods", "cone", "smatrix"]})
    out = tmp / "report.json"
    code = cli.main(["--config", cfg, "--out", str(out)])
    return code, json.loads(out.read_text()), cfg, tmp


class TestReports:
    def test_exit_zero(self, basic_report):
        assert basic_report[0] == 0

    def test_schema_and_version(self, basic_report):
        _, rep, _, _ = basic_report
        assert rep["schema"] == "cone-spectra/1"
        assert "version" in rep and "config" in rep

    def test_periods_result(self, basic_report):
        _, rep, _, _ = basic_report
        res = rep["results"]["periods"]
        assert res["area"] > 0
        assert res["area_error_estimate"] < 1e-4
        names = {c["name"]: c["passed"] for c in res["checks"]}
        assert names["period_matrix_symmetry"]
        assert names["im_b_positive_definite"]
        assert names["area_grid_stability"]

    def test_cone_result(self, basic_report):
        _, rep, _, _ = basic_report
        res = rep["results"]["cone"]
        first = res["entries"][0]
        assert first["lambda"] == -1.0
        assert abs(first["detP_asym"] - 27 / (2 * 3.141592653589793 ** 2)) \
            < 1e-6
        assert res["checks"][0]["passed"]

    def test_smatrix_result(self, basic_report):
        _, rep, _, _ = basic_report
        res = rep["results"]["smatrix"]
        assert res["classification"] == "dimension 3 signature"
        assert all(c["passed"] for c in res["checks"])

    def test_deterministic_bytes(self, basic_report):
        _, _, cfg, tmp = basic_report
        a, b = tmp / "a.json", tmp / "b.json"
        assert cli.main(["--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_tol_scale_applied(self, basic_report, tmp_path):
        _, _, cfg, _ = basic_report
        out = tmp_path / "scaled.json"
        assert cli.main(["--config", cfg, "--command", "cone",
                         "--out", str(out), "--tol-scale", "10"]) == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["cone"]["checks"][0]["tolerance"] == 1e-9


class TestGreenCommand:
    def test_green_report(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "commands": ["green"],
            "points": [{"lam": [-0.7, 0.4], "sheet": 1},
                       {"lam": [0.9, 1.3], "sheet": 1}],
        })
        out = tmp_path / "green.json"
        assert cli.main(["--config", cfg, "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]["green"]
        names = {c["name"]: c["passed"] for c in res["checks"]}
        assert names["symmetry"]
        assert names["coefficient_matching_xi"]
        assert names["bergman_consistency"]
        # the paper's bridge: the special solutions' expansion against T(0)
        assert names["expansion_singular"]
        assert names["expansion_vs_t0"]
        assert len(res["green_values"]) == 1

    def test_one_green_call_per_point(self, tmp_path, monkeypatch):
        # G(x, y) serves the symmetry check and the first green value, so
        # no solver evaluates one point twice
        from conespectra import green

        calls = []
        solve = green.GreenSolver.green

        def counted(self, x):
            calls.append((self.y, x))
            return solve(self, x)

        monkeypatch.setattr(green.GreenSolver, "green", counted)
        lams = [[-0.7, 0.4], [0.9, 1.3], [0.2, -0.6]]
        cfg = write_cfg(tmp_path, {
            "commands": ["green"], "surface_grid": [6, 8],
            "points": [{"lam": lam, "sheet": 1} for lam in lams]})
        out = tmp_path / "green.json"
        assert cli.main(["--config", cfg, "--out", str(out)]) == 0
        assert len(calls) == len(set(calls))
        x, y, z = (cli.SurfacePoint(complex(*lam), 1) for lam in lams)
        assert {(y, x), (y, z), (x, y)} <= set(calls)
        values = json.loads(out.read_text())["results"]["green"][
            "green_values"]
        assert [v["x"] for v in values] == [lams[0], lams[2]]

    def test_too_few_points(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"commands": ["green"], "points": []})
        assert cli.main(["--config", cfg]) == cli.EXIT_VALIDATION

    def test_translated_curve_periods(self, tmp_path):
        # the surface grid's truncation radius is checked against the
        # branch points' distance from their centre: the z5 curve centred
        # at 5 reports the area of the one centred at 0, within its
        # estimate, where a check against |branch point| refused it
        areas = []
        for lam1 in ([0.0, 0.0], [5.0, 0.0]):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"commands": ["periods"],
                                       "curve": {"z5": {"lambda1": lam1}}}))
            out = tmp_path / "report.json"
            assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
            res = json.loads(out.read_text())["results"]["periods"]
            areas.append((res["area"], res["area_error_estimate"]))
        assert abs(areas[1][0] - areas[0][0]) <= areas[0][1]


class TestExitCodes:
    def test_duplicate_branch_points(self, tmp_path):
        cfg = tmp_path / "dup.json"
        cfg.write_text(json.dumps({
            "curve": {"branch_points": [[0, 0], [0, 0], [1, 0], [2, 0],
                                        [3, 0], [4, 0]],
                      "cone_point": 0},
            "commands": ["periods"]}))
        assert cli.main(["--config", str(cfg)]) == cli.EXIT_VALIDATION

    def test_positive_lambda(self, tmp_path):
        cfg = write_cfg(tmp_path, {"commands": ["cone"], "lambdas": [1.0]})
        assert cli.main(["--config", cfg]) == cli.EXIT_VALIDATION

    def test_missing_config(self):
        assert cli.main(["--config", "/no/such/file.json"]) \
            == cli.EXIT_VALIDATION

    def test_no_command(self, tmp_path):
        cfg = write_cfg(tmp_path, {})
        assert cli.main(["--config", cfg]) == cli.EXIT_VALIDATION

    def test_unknown_command(self, tmp_path):
        cfg = write_cfg(tmp_path, {"commands": ["frobnicate"]})
        assert cli.main(["--config", cfg]) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("extra", [
        pytest.param({"commands": ["periods"], "surface_grid": [12]},
                     id="one-entry-grid"),
        pytest.param({"commands": ["green"],
                      "points": [{"lam": [-0.7, 0.4], "sheet": 0},
                                 {"lam": [0.9, 1.3], "sheet": 1}]},
                     id="sheet-zero"),
        pytest.param({"commands": ["green"],
                      "points": [{"lam": [0.9, 1.3], "sheet": 1},
                                 {"lam": [0.9, 1.3], "sheet": 1}]},
                     id="equal-points"),
        pytest.param({"commands": ["green"],
                      "points": [{"lam": [-0.7, 0.4], "sheet": 1},
                                 {"lam": [0.0, 0.0], "sheet": 1}]},
                     id="point-on-cone"),
        pytest.param({"commands": ["smatrix"], "h_order": 2},
                     id="h-order-too-low"),
        *(pytest.param({"commands": ["green"],
                        "points": [{"lam": [-0.7, 0.4], "sheet": sheet},
                                   {"lam": [0.9, 1.3], "sheet": 1}]},
                       id=f"sheet-{sheet}") for sheet in (1.5, True)),
        *(pytest.param({"commands": ["smatrix"], key: value},
                       id=f"{key.replace('_', '-')}-{value}")
          for key, value in (("series_order", 20.5), ("series_order", True),
                             ("h_order", 8.5), ("h_order", True))),
        *(pytest.param({"commands": ["periods"], "curve": {
            "z5": {"lambda1": [0.0, 0.0], "r": 1.0}, "cone_point": cp}},
            id=f"z5-cone-point-{cp}") for cp in (0.5, True)),
        pytest.param({"commands": ["periods"], "curve": {
            "branch_points": [[0, 0], [1, 0], [0.3, 1.1], [-0.8, 0.7],
                              [-1.1, -0.4], [0.5, -0.9]],
            "cone_point": 2.5}}, id="cone-point-2.5"),
        pytest.param({"commands": ["green"],
                      "points": [[-0.7, 0.4], {"lam": [0.9, 1.3]}]},
                     id="point-not-object"),
        pytest.param({"commands": ["green"],
                      "points": [{"lam": [-0.7]}, {"lam": [0.9, 1.3]}]},
                     id="lam-one-entry"),
        pytest.param({"commands": ["periods"], "surface_grid": [6, 0]},
                     id="angular-count-zero"),
        *(pytest.param({"commands": ["periods"], "surface_grid": [n, 8]},
                       id=f"radial-count-{n}") for n in (0, -4, 1.5)),
        pytest.param({"commands": ["periods"],
                      "surface_grid": [6, 8, float("nan")]}, id="nan-radius"),
        pytest.param({"commands": ["periods"], "curve": {
            "branch_points": [[float("nan"), 0], [1, 0], [0.3, 1.1],
                              [-0.8, 0.7], [-1.1, -0.4], [0.5, -0.9]],
            "cone_point": 2}}, id="nan-branch-point"),
        *(pytest.param({"commands": ["cone"], "lambdas": [lam]},
                       id=f"lambda-{lam}") for lam in (-float("inf"),
                                                       -1e308)),
        *(pytest.param({"commands": ["green"],
                        "points": [{"lam": [-0.7, 0.4]},
                                   {"lam": [bad, 0.0]}]},
                       id=f"point-lam-{bad}") for bad in (float("inf"),
                                                          float("nan"))),
    ])
    def test_bad_input_exit(self, tmp_path, extra):
        cfg = write_cfg(tmp_path, {"surface_grid": [6, 8], **extra})
        assert cli.main(["--config", cfg]) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("root", [[1, 2], "periods"],
                             ids=["list", "string"])
    def test_config_not_an_object(self, tmp_path, root):
        cfg = tmp_path / "root.json"
        cfg.write_text(json.dumps(root))
        assert cli.main(["--config", str(cfg)]) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("scale", ["nan", "-1", "0", "inf"])
    def test_bad_tol_scale(self, tmp_path, scale):
        cfg = write_cfg(tmp_path, {"commands": ["cone"]})
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", cfg, "--tol-scale", scale])
        assert exc.value.code == cli.EXIT_VALIDATION

    def test_nonconvergence_exit(self, tmp_path, monkeypatch, capsys):
        def boom(cfg, tol_scale=1.0):
            raise NonConvergence("stalled")
        monkeypatch.setitem(cli._COMMANDS, "cone", boom)
        cfg = write_cfg(tmp_path, {"commands": ["periods", "cone"]})
        assert cli.main(["--config", cfg]) == cli.EXIT_CONVERGENCE
        # the message names the command that raised
        assert capsys.readouterr().err.strip().splitlines()[-1] \
            == "error: NonConvergence in cone: stalled"

    def test_internal_inconsistency_exit(self, tmp_path, monkeypatch, capsys):
        def boom(cfg, tol_scale=1.0):
            raise ConsistencyFailure("route mismatch")
        monkeypatch.setitem(cli._COMMANDS, "cone", boom)
        cfg = write_cfg(tmp_path, {"commands": ["cone"]})
        assert cli.main(["--config", cfg]) == cli.EXIT_INTERNAL
        assert capsys.readouterr().err.strip().splitlines()[-1] \
            == "error: ConsistencyFailure in cone: route mismatch"

    def test_green_second_argument_on_grid_node_exit(self, tmp_path):
        # y on a p-grid node of z5 at (6, 8), where the solver's
        # (1/2) log|lambda - lambda_y| would be -inf: exit 4 with the
        # error named, under RuntimeWarnings as errors, and no report
        cfg = write_cfg(tmp_path, {
            "commands": ["green"], "surface_grid": [6, 8],
            "points": [{"lam": [0.9, 1.3], "sheet": 1},
                       {"lam": [-0.7335368558799493, 0.4055600782480495],
                        "sheet": 1}]})
        out = tmp_path / "green.json"
        proc = run_strict(cfg, out)
        assert proc.returncode == cli.EXIT_INTERNAL, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip().splitlines()[-1].startswith(
            "error: SingularityOnGrid in green: ")
        assert not out.exists()

    @pytest.mark.parametrize("lam", [[1e300, 0.4], [1e150, 0.0],
                                     [1e160, 0.0], [0.0, -1e51]])
    def test_green_far_point_exit(self, tmp_path, lam):
        # a point over 1e50 curve scales from the branch-point centre, where
        # the squared distances to the grid nodes overflowed (a traceback
        # under RuntimeWarnings as errors) or the path integral met NaN
        # (exit 3): exit 2 with the bound named, no report
        cfg = write_cfg(tmp_path, {
            "commands": ["green"], "surface_grid": [6, 8],
            "points": [{"lam": lam, "sheet": 1},
                       {"lam": [0.9, 1.3], "sheet": 1}]})
        out = tmp_path / "green.json"
        proc = run_strict(cfg, out)
        assert proc.returncode == cli.EXIT_VALIDATION, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "must lie within 1e+50 of the branch-point centre" \
            in proc.stderr.strip().splitlines()[-1]
        assert not out.exists()

    def test_green_point_inside_reach_reported(self, tmp_path):
        # a point 1e40 curve scales out lies inside the bound: a report
        # with finite values, as before the bound
        cfg = write_cfg(tmp_path, {
            "commands": ["green"], "surface_grid": [6, 8],
            "points": [{"lam": [1e40, 0.0], "sheet": 1},
                       {"lam": [0.9, 1.3], "sheet": 1}]})
        out = tmp_path / "green.json"
        assert cli.main(["--config", cfg, "--out", str(out)]) == 0
        values = json.loads(out.read_text())["results"]["green"][
            "green_values"]
        assert values and all(abs(v["value"]) < float("inf")
                              for v in values)

    @pytest.mark.parametrize("radius", [1e50, 1e300])
    def test_green_far_grid_exit(self, tmp_path, radius):
        # a truncation radius that puts the exterior chart's nodes over
        # 1e50 curve scales from the branch-point centre, where the
        # products of their distances to the branch points overflowed
        # (exit 3, or a traceback under RuntimeWarnings as errors): exit 2
        # with the bound named, no report
        cfg = write_cfg(tmp_path, {
            "commands": ["green"], "surface_grid": [6, 8, radius],
            "points": [{"lam": [-0.7, 0.4], "sheet": 1},
                       {"lam": [0.9, 1.3], "sheet": 1}]})
        out = tmp_path / "green.json"
        proc = run_strict(cfg, out)
        assert proc.returncode == cli.EXIT_VALIDATION, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "over 1e+50 from the branch-point centre" \
            in proc.stderr.strip().splitlines()[-1]
        assert not out.exists()

    def test_green_grid_inside_reach_reported(self, tmp_path):
        # a truncation radius of 1e40 keeps the grid inside the bound: a
        # report whose checks all pass, as before the bound
        cfg = write_cfg(tmp_path, {
            "commands": ["green"], "surface_grid": [6, 8, 1e40],
            "points": [{"lam": [-0.7, 0.4], "sheet": 1},
                       {"lam": [0.9, 1.3], "sheet": 1}]})
        out = tmp_path / "green.json"
        assert cli.main(["--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())["results"]["green"]
        assert all(c["passed"] for c in report["checks"]), report["checks"]


def count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


class TestStageSharing:
    def test_one_period_data_per_curve(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, cli, "period_data")
        cfg = write_cfg(tmp_path, {"commands": ["periods", "smatrix",
                                                "cone", "z5-audit"]})
        out = str(tmp_path / "report.json")
        assert cli.main(["--config", cfg, "--out", out]) == 0
        # the config's curve and z5-audit's perturbed curve
        assert len(calls) == 2
        # nothing is kept from one run to the next
        assert cli.main(["--config", cfg, "--out", out]) == 0
        assert len(calls) == 4

    def test_periods_alone_builds_no_frame(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, bidiff, "distinguished_frame")
        cfg = write_cfg(tmp_path, {"commands": ["periods"]})
        out = str(tmp_path / "report.json")
        assert cli.main(["--config", cfg, "--out", out]) == 0
        assert calls == []

    def test_green_builds_one_tree(self, monkeypatch):
        # the green command's Green function, special-solution means and
        # expansion check share one spanning tree, over the p grid
        from conespectra import green

        contexts, built = [], []
        build, make_context = green.build_surface_tree, green.green_context

        def recorded(*args, **kwargs):
            contexts.append(make_context(*args, **kwargs))
            return contexts[-1]

        def counted(curve, grid):
            built.append(grid)
            return build(curve, grid)

        monkeypatch.setattr(green, "green_context", recorded)
        monkeypatch.setattr(green, "build_surface_tree", counted)
        cfg = dict(Z5_CFG, surface_grid=[6, 8], points=[
            {"lam": [-0.7, 0.4], "sheet": 1}, {"lam": [0.9, 1.3], "sheet": 1}])
        cli.run(cfg, ["green"])
        assert len(contexts) == 1
        assert built == [contexts[0].p_grid]

    @pytest.mark.parametrize("name", [f"cli_batch_{k}" for k in range(4)])
    def test_report_matches_stored_reference(self, tmp_path, name):
        ref = (REFERENCE_DIR / f"{name}.json").read_bytes()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(json.loads(ref)["config"]))
        out = tmp_path / "report.json"
        assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_bytes() == ref


def loaded_by_cli_import(module):
    """Whether a fresh interpreter has module loaded after importing
    conespectra.cli."""
    src = os.path.dirname(os.path.dirname(conespectra.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, conespectra.cli; "
            f"print({module!r} in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip() == "True"


def test_import_leaves_scipy_special_unloaded():
    assert not loaded_by_cli_import("scipy.special")


def test_import_leaves_green_unloaded():
    # the green command imports it on first use
    assert not loaded_by_cli_import("conespectra.green")
