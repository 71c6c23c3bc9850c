import json
import subprocess
import sys

import pytest

import resbdy
from resbdy.cli import main

TRIANGLE = json.dumps({"edges": [[0, 1, 1], [1, 2, 1], [0, 2, 1]], "origin": 0})


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_resist_triangle(capsys):
    code, doc = run_cli(["resist", "--network", TRIANGLE, "--x", "1", "--y", "2"],
                        capsys)
    assert code == 0
    assert doc["schema"] == "1"
    assert doc["report"]["resistance"] == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert doc["pass"] is True
    assert "seed" in doc["config"]


def test_unknown_flag_is_usage_error(capsys):
    code = main(["resist", "--network", TRIANGLE, "--x", "1", "--frobnicate"])
    assert code == 1


def test_unknown_network_is_usage_error(capsys):
    code = main(["resist", "--network", "nonsense-family", "--x", "1"])
    assert code == 1


def test_reports_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code = main(["wiener", "--check", "minlos", "--N", "6", "--samples",
                     "5000", "--seed", "9", "--n-checks", "3",
                     "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_kernel_csv_and_report(tmp_path, capsys):
    csv = tmp_path / "kernel.csv"
    code, doc = run_cli(["kernel", "--network", TRIANGLE, "--x", "1",
                         "--csv", str(csv)], capsys)
    assert code == 0
    header, *rows = csv.read_text().strip().splitlines()
    assert header == "vertex_index,value"
    assert len(rows) == 3


def test_ladder_command(tmp_path, capsys):
    code, doc = run_cli(["ladder", "--alpha", "5", "--beta", "0.9",
                         "--N", "200"], capsys)
    assert code == 0
    rep = doc["report"]
    assert rep["u1"] == pytest.approx(0.2)
    assert rep["du_positive"] and rep["du_bound_holds"]
    assert rep["energy"]["converged"]


def test_monopole_halfline(capsys):
    code, doc = run_cli(["monopole", "--network", "geometric-half-line",
                         "--alpha", "2", "--levels", "40",
                         "--schedule", "linear"], capsys)
    assert code == 0
    assert doc["report"]["transient"] is True


def test_onb_command_with_csv(tmp_path, capsys):
    prefix = str(tmp_path / "onb_")
    code, doc = run_cli(["onb", "--network", TRIANGLE, "--N", "2",
                         "--csv-prefix", prefix], capsys)
    assert code == 0
    rep = doc["report"]
    assert rep["orthonormality_dev"] <= 1e-9
    for name in ("M", "E", "V"):
        assert (tmp_path / f"onb_{name}.csv").exists()


def test_walk_command(capsys):
    code, doc = run_cli(["walk", "--network", TRIANGLE, "--start", "2",
                         "--target", "1", "--trials", "20000", "--seed", "3"],
                        capsys)
    assert code == 0
    rep = doc["report"]
    assert abs(rep["estimate"] - rep["reference"]) <= 4 * max(rep["stderr"], 1e-9)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_walk_with_no_absorbed_walk_fails(capsys):
    code = main(["walk", "--network", "ladder", "--alpha", "5", "--beta", "0.9",
                 "--radius", "8", "--start", "6", "--target", "12",
                 "--max-steps", "1", "--trials", "100"])
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 2
    assert doc["pass"] is False
    rep = doc["report"]
    assert rep["absorbed"] == 0
    assert rep["estimate"] is None and rep["stderr"] is None


def test_walk_with_target_at_the_absorber_is_a_clean_error(capsys):
    # the default absorber is the origin, so --target 0 leaves no dipole
    code = main(["walk", "--network", "ladder", "--alpha", "5", "--beta", "0.9",
                 "--start", "2", "--target", "0", "--trials", "2000",
                 "--radius", "6"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error [invalid-parameters]")
    assert "Traceback" not in captured.err and captured.out == ""


def test_onb_fraction_lane_reaches_the_solver(capsys, monkeypatch):
    from resbdy import onb as onbmod
    lanes = []
    solve = onbmod.solve_dipole_level

    def recording_solve(*args, lane="auto", **kwargs):
        lanes.append(lane)
        return solve(*args, lane=lane, **kwargs)

    monkeypatch.setattr(onbmod, "solve_dipole_level", recording_solve)
    path5 = json.dumps({"edges": [[i, i + 1, 1] for i in range(4)], "origin": 0})
    code, doc = run_cli(["onb", "--network", path5, "--N", "4",
                         "--lane", "fraction"], capsys)
    assert code == 0
    assert lanes == ["fraction"] * 4
    assert doc["config"]["lane"] == "fraction"
    # exact kernels are orthonormalized in mp
    assert doc["report"]["field"] == "mp"


def test_recorded_workers_are_the_clamped_count(capsys, monkeypatch):
    monkeypatch.setenv("RESBDY_THREADS", "500")
    code, doc = run_cli(["wiener", "--check", "minlos", "--N", "4", "--samples",
                         "2000", "--n-checks", "1"], capsys)
    assert code == 0
    assert doc["config"]["workers"] == 64


def test_config_records_every_parsed_argument(capsys):
    configs = []
    for alpha in ("5", "7"):
        _, doc = run_cli(["decompose", "--network", "ladder", "--alpha", alpha,
                          "--beta", "0.9", "--x", "2", "--levels", "6",
                          "--tol", "1e-3", "--harm-tol", "1e-3"], capsys)
        configs.append(doc["config"])
    assert configs[0] != configs[1]
    assert configs[0]["alpha"] == 5.0 and configs[1]["alpha"] == 7.0
    cfg = configs[0]
    assert cfg["harm_tol"] == 1e-3 and cfg["tol"] == 1e-3
    assert (cfg["beta"], cfg["x"], cfg["lane"]) == (0.9, 2, "auto")
    assert cfg["subcommand"] == "decompose"
    assert cfg["version"] == resbdy.__version__
    assert "out" not in cfg and "fn" not in cfg


def test_verify_all_small_network(capsys):
    code, doc = run_cli(["verify-all", "--network", TRIANGLE], capsys)
    assert code == 0
    assert all(c["pass"] for c in doc["report"]["checks"])


def test_paths_command_ladder(capsys):
    code, doc = run_cli(["paths", "--network", "ladder", "--alpha", "5",
                         "--beta", "0.9", "--horizon", "40", "--levels", "45"],
                        capsys)
    assert code == 0
    assert doc["report"]["equivalence"]["verdict"] == "separated"


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "resbdy.cli", "resist",
                          "--network", TRIANGLE, "--x", "1"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["report"]["resistance"] == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_resist_from_spec_file(tmp_path, capsys):
    spec = tmp_path / "triangle.json"
    spec.write_text(TRIANGLE)
    code, doc = run_cli(["resist", "--network", str(spec), "--x", "1",
                         "--y", "2"], capsys)
    assert code == 0
    assert doc["report"]["resistance"] == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_boundary_sum_command_ladder(capsys):
    code, doc = run_cli(["boundary-sum", "--network", "ladder", "--alpha", "5",
                         "--beta", "0.9", "--x", "2", "--levels", "12"], capsys)
    assert code == 0
    assert doc["report"]["final_deviation"] <= 1e-3


def test_wiener_resistance_command(capsys):
    code, doc = run_cli(["wiener", "--check", "resistance", "--network",
                         TRIANGLE, "--x", "1", "--y", "2", "--N", "2",
                         "--samples", "40000", "--seed", "5"], capsys)
    assert code == 0
    assert all(c["pass"] for c in doc["report"]["checks"])


def test_wiener_boundary_command(capsys):
    code, doc = run_cli(["wiener", "--check", "boundary", "--network", "ladder",
                         "--alpha", "5", "--beta", "0.9", "--x", "2",
                         "--N", "16", "--samples", "40000", "--seed", "5",
                         "--levels", "26"], capsys)
    assert code == 0
    checks = doc["report"]["checks"]
    assert checks[0]["pass"]
    assert 0.0 <= checks[1]["mu_negative_fraction"] <= 1.0


def test_generate_command(capsys):
    code, doc = run_cli(["generate", "--network", "binary-tree",
                         "--radius", "2"], capsys)
    assert code == 0
    rep = doc["report"]
    assert rep["n_vertices"] == 7 and rep["n_edges"] == 6
    assert all(e[2] == 1.0 for e in rep["edges"])


def test_gauss_green_command(capsys):
    code, doc = run_cli(["gauss-green", "--network", TRIANGLE, "--x", "1",
                         "--u-kernel", "2"], capsys)
    assert code == 0
    levels = doc["report"]["levels"]
    assert levels[-1]["boundary_sum"] == 0.0
    assert levels[-1]["deviation_from_target"] == pytest.approx(0.0, abs=1e-10)


def test_wiener_moments_command(capsys):
    code, doc = run_cli(["wiener", "--check", "moments", "--N", "8",
                         "--samples", "20000", "--seed", "2",
                         "--n-checks", "4"], capsys)
    assert code == 0
    assert all(c["pass"] for c in doc["report"]["checks"])


def test_reports_byte_identical_across_processes(tmp_path):
    import subprocess
    outs = []
    for _ in range(2):
        r = subprocess.run([sys.executable, "-m", "resbdy.cli", "resist",
                            "--network", TRIANGLE, "--x", "1", "--y", "2"],
                           capture_output=True, text=True)
        assert r.returncode == 0
        outs.append(r.stdout)
    assert outs[0] == outs[1]


def test_unconverged_resist_exits_two(capsys):
    code, doc = run_cli(["resist", "--network", "ladder", "--alpha", "5",
                         "--beta", "0.9", "--x", "2", "--levels", "8"], capsys)
    assert code == 2
    assert doc["pass"] is False
    assert doc["report"]["convergence"]["converged"] is False


@pytest.mark.parametrize("argv", [
    ["resist", "--network", "integer-lattice", "--x", "100", "--levels", "3"],
    ["resist", "--network", "integer-lattice", "--x", "-3", "--levels", "3"],
    ["kernel", "--network", "integer-lattice", "--x", "100", "--levels", "3"],
    ["kernel", "--network", "integer-lattice", "--x", "-3", "--levels", "3",
     "--bc", "wired"],
    ["boundary-sum", "--network", "ladder", "--alpha", "5", "--beta", "0.9",
     "--x", "100", "--levels", "3"],
    ["monopole", "--network", "integer-lattice", "--x", "100", "--levels", "3"],
    ["resist", "--network", "integer-lattice", "--x", "100", "--y", "100",
     "--levels", "3"],
])
def test_vertex_outside_the_exhaustion_is_a_clean_error(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error [invalid-parameters]")
    assert "never entered the exhaustion" in captured.err


# -- no NaN passes a check ----------------------------------------------------

NAN = float("nan")


def _nan_gram_product(monkeypatch):
    monkeypatch.setattr(resbdy.onb, "gram_product_check", lambda onb: NAN)


def _nan_split_identity(monkeypatch):
    verify = resbdy.boundary.gauss_green_verify

    def nan_verify(*args, **kwargs):
        rep = verify(*args, **kwargs)
        rep.split_identity_dev = NAN
        return rep
    monkeypatch.setattr(resbdy.boundary, "gauss_green_verify", nan_verify)


def test_nan_onb_deviation_fails_onb(monkeypatch, capsys):
    _nan_gram_product(monkeypatch)
    code, doc = run_cli(["onb", "--network", TRIANGLE, "--N", "2"], capsys)
    assert code == 2 and doc["pass"] is False
    assert doc["report"]["gram_product_dev"] is None


def test_nan_deviations_fail_verify_all(monkeypatch, capsys):
    _nan_gram_product(monkeypatch)
    _nan_split_identity(monkeypatch)
    monkeypatch.setattr(resbdy.cli, "energy", lambda u, v: NAN)
    code, doc = run_cli(["verify-all", "--network", TRIANGLE], capsys)
    assert code == 2
    failed = [c["check"] for c in doc["report"]["checks"] if not c["pass"]]
    assert failed == ["reproducing-identity", "gauss-green-window-identity",
                      "onb-identities"]


def test_nan_split_identity_fails_gauss_green(monkeypatch, capsys):
    _nan_split_identity(monkeypatch)
    code, doc = run_cli(["gauss-green", "--network", TRIANGLE, "--x", "1",
                         "--u-kernel", "2"], capsys)
    assert code == 2 and doc["pass"] is False


def test_nan_boundary_sum_fails_boundary_sum(monkeypatch, capsys):
    bsum = resbdy.boundary.boundary_sum_harmonic

    def nan_bsum(*args, **kwargs):
        rep = bsum(*args, **kwargs)
        rep.target = NAN
        return rep
    monkeypatch.setattr(resbdy.boundary, "boundary_sum_harmonic", nan_bsum)
    code, doc = run_cli(["boundary-sum", "--network", TRIANGLE, "--x", "1",
                         "--u-kernel", "1"], capsys)
    assert code == 2 and doc["pass"] is False
