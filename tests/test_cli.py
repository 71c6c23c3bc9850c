import argparse
import ast
import inspect
import json
import subprocess
import sys
import textwrap

import pytest

import resbdy
from resbdy import LadderGenerator, royden_split
from resbdy.cli import main
from resbdy.ladder import ladder_energy, ladder_harmonic

TRIANGLE = json.dumps({"edges": [[0, 1, 1], [1, 2, 1], [0, 2, 1]], "origin": 0})
LADDER_09 = ["--network", "ladder", "--alpha", "5", "--beta", "0.9"]


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
    assert doc["pass"] is all(c["passed"] for c in doc["checks"]) is True
    assert [c["name"] for c in doc["checks"]] == ["ladder_energy"]


def test_ladder_csv(tmp_path, capsys):
    csv = tmp_path / "ladder.csv"
    code, doc = run_cli(["ladder", "--alpha", "5", "--beta", "0.9", "--N", "20",
                         "--csv", str(csv)], capsys)
    assert code == 2  # 20 levels are too few for the energy to converge
    assert doc["pass"] is all(c["passed"] for c in doc["checks"]) is False
    assert doc["report"]["csv"] == str(csv)
    header, *rows = csv.read_text().strip().splitlines()
    assert header == "n,u,du,partial_energy"
    assert len(rows) == 21
    assert rows[0] == "0,0.0,0.2," + repr(float(
        ladder_energy(ladder_harmonic(5, 0.9, 20)).total_partial[0]))
    # u(N) has no increment and no partial energy after it
    assert rows[-1].startswith("20,") and rows[-1].endswith(",,")


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
    assert doc["pass"] is all(c["passed"] for c in doc["checks"]) is True
    (record,) = doc["checks"]
    assert record["name"] == "hitting-probability"
    assert record["bound"] == 4 * max(rep["stderr"], 1e-12)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_walk_with_no_absorbed_walk_fails(capsys):
    code = main(["walk", "--network", "ladder", "--alpha", "5", "--beta", "0.9",
                 "--radius", "8", "--start", "6", "--target", "12",
                 "--max-steps", "1", "--trials", "100"])
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 2
    assert doc["pass"] is all(c["passed"] for c in doc["checks"]) is False
    rep = doc["report"]
    assert rep["absorbed"] == 0
    assert rep["estimate"] is None and rep["stderr"] is None


@pytest.mark.parametrize("max_steps", ["0", "-3"])
def test_walk_with_max_steps_below_one_is_a_usage_error(capsys, max_steps):
    code = main(["walk", "--network", TRIANGLE, "--start", "2", "--target", "1",
                 "--trials", "10", "--max-steps", max_steps])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error [invalid-parameters]")
    assert "Traceback" not in captured.err and captured.out == ""


def test_walk_with_target_at_the_absorber_is_a_clean_error(capsys):
    # the absorber is the origin, so --target 0 leaves no dipole
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


def test_reports_ignore_resbdy_threads(tmp_path, monkeypatch):
    # the samples depend on the seed alone; no environment variable moves them
    argv = ["wiener", "--check", "minlos", "--N", "4", "--samples", "1000",
            "--n-checks", "2"]
    monkeypatch.delenv("RESBDY_THREADS", raising=False)
    assert main(argv + ["--out", str(tmp_path / "unset.json")]) == 0
    monkeypatch.setenv("RESBDY_THREADS", "4")
    assert main(argv + ["--out", str(tmp_path / "four.json")]) == 0
    assert ((tmp_path / "unset.json").read_bytes()
            == (tmp_path / "four.json").read_bytes())


def test_config_records_every_parsed_argument(capsys):
    configs = []
    for alpha in ("5", "7"):
        _, doc = run_cli(["decompose", "--network", "ladder", "--alpha", alpha,
                          "--beta", "0.9", "--x", "2", "--levels", "6",
                          "--tol", "1e-3"], capsys)
        configs.append(doc["config"])
    assert configs[0] != configs[1]
    assert configs[0]["alpha"] == 5.0 and configs[1]["alpha"] == 7.0
    cfg = configs[0]
    assert cfg["tol"] == 1e-3
    assert (cfg["beta"], cfg["x"], cfg["lane"]) == (0.9, 2, "auto")
    assert cfg["subcommand"] == "decompose"
    assert cfg["version"] == resbdy.__version__
    assert set(cfg) == {"network", "alpha", "beta", "dim", "seed", "levels",
                        "tol", "lane", "x", "subcommand",
                        "version", "network_spec"}


def test_verify_all_small_network(capsys):
    code, doc = run_cli(["verify-all", "--network", TRIANGLE], capsys)
    assert code == 0
    assert doc["pass"] is all(c["passed"] for c in doc["checks"]) is True


def test_verify_all_checks_exhaustion_independence_on_a_family(capsys):
    code, doc = run_cli(["verify-all", "--network", "binary-tree",
                         "--levels", "12", "--tol", "1e-4"], capsys)
    assert code == 0 and doc["pass"] is True
    checks = {c["name"]: c for c in doc["checks"]}
    ind = checks["exhaustion-independence"]
    assert ind["passed"] and ind["value"] == "agree"
    assert doc["report"]["exhaustion_independence"]["verdict"] == "agree"


def test_paths_command_ladder(capsys):
    code, doc = run_cli(["paths", "--network", "ladder", "--alpha", "5",
                         "--beta", "0.9", "--horizon", "40", "--levels", "45"],
                        capsys)
    assert code == 0
    assert doc["report"]["equivalence"]["verdict"] == "separated"


def test_paths_gives_the_splits_its_level_budget(monkeypatch, capsys):
    split, budgets = resbdy.cli.royden_split, []

    def recorded(*args, levels, **kwargs):
        budgets.append(levels)
        return split(*args, levels=levels, **kwargs)
    monkeypatch.setattr(resbdy.cli, "royden_split", recorded)
    code, doc = run_cli(["paths", *LADDER_09, "--horizon", "24",
                         "--levels", "36"], capsys)
    assert code == 0 and doc["config"]["levels"] == 36
    assert budgets == [36, 36]


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


@pytest.mark.parametrize("beta", ["0.9", "1"])
def test_boundary_sum_on_the_ladder_reads_the_u_kernel(beta, capsys):
    # the ladder function is u only without --u-kernel; ladder(5, 1) has none
    code, doc = run_cli(["boundary-sum", "--network", "ladder", "--alpha", "5",
                         "--beta", beta, "--x", "2", "--levels", "6",
                         "--u-kernel", "4"], capsys)
    h = royden_split(LadderGenerator(5, float(beta)), 4, levels=6).h
    assert code == 0 and doc["config"]["u_kernel"] == 4
    assert doc["report"]["target"] == h.value(2) - h.value(0)


def test_wiener_resistance_command(capsys):
    code, doc = run_cli(["wiener", "--check", "resistance", "--network",
                         TRIANGLE, "--x", "1", "--y", "2", "--N", "2",
                         "--samples", "40000", "--seed", "5"], capsys)
    assert code == 0
    assert doc["pass"] is all(c["passed"] for c in doc["checks"]) is True
    assert [c["name"] for c in doc["checks"]] == [
        "resistance(1,2, bc=free)", "resistance-quadratic",
        "resistance-exponential"]


def test_wiener_boundary_command(capsys):
    code, doc = run_cli(["wiener", "--check", "boundary", "--network", "ladder",
                         "--alpha", "5", "--beta", "0.9", "--x", "2",
                         "--N", "16", "--samples", "40000", "--seed", "5",
                         "--levels", "26"], capsys)
    assert code == 0
    assert doc["pass"] is all(c["passed"] for c in doc["checks"]) is True
    assert [c["name"] for c in doc["checks"]] == ["boundary-integral"]
    assert 0.0 <= doc["report"]["mu_negative_fraction"] <= 1.0


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
    assert doc["pass"] is all(c["passed"] for c in doc["checks"]) is True
    assert len(doc["checks"]) == len(doc["report"]["results"]) == 12


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
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
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


# -- the CLI declares only the options it reads -------------------------------


def _args_read(fn, seen):
    """Attributes read off ``args`` in fn and in the cli helpers it calls."""
    reads = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == "args"):
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            helper = getattr(resbdy.cli, node.func.id, None)
            if (inspect.isfunction(helper) and helper not in seen
                    and helper.__module__ == resbdy.cli.__name__):
                seen.add(helper)
                reads |= _args_read(helper, seen)
    return reads


def test_every_declared_option_is_read():
    parser = resbdy.cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, p in sub.choices.items():
        reads = _args_read(p.get_default("fn"), set())
        if p.get_default("resolve"):
            # main resolves this subcommand's --network before it runs fn
            reads |= _args_read(resbdy.cli.resolve_network, set())
        unread += [f"{name} --{a.dest}" for a in p._actions
                   if a.dest not in ("help", "seed", "out", *reads)]
    assert unread == []


@pytest.mark.parametrize("argv", [
    ["walk", "--network", "integer-lattice", "--start", "1", "--target", "2",
     "--trials", "10", "--lane", "mp"],
    ["onb", "--network", TRIANGLE, "--N", "2", "--levels", "3"],
    ["generate", "--network", "binary-tree", "--tol", "1"],
    ["resist", "--network", TRIANGLE, "--x", "1", "--origin", "1"],
    ["boundary-sum", "--network", TRIANGLE, "--x", "1", "--u-kernel", "1",
     "--bs-tol", "1"],
    ["paths", *LADDER_09, "--horizon", "24", "--levels", "12",
     "--path-tol", "1e-3"],
    ["paths", *LADDER_09, "--horizon", "24", "--levels", "12",
     "--separation-tol", "1e-3"],
    ["walk", "--network", TRIANGLE, "--start", "2", "--target", "1",
     "--trials", "10", "--absorber", "2"],
    ["walk", "--network", TRIANGLE, "--start", "2", "--target", "1",
     "--trials", "10", "--boundary-mode", "wired"],
])
def test_an_option_the_command_does_not_read_is_a_usage_error(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error")


@pytest.mark.parametrize("argv", [
    ["paths", "--network", TRIANGLE],
    ["paths", *LADDER_09, "--horizon", "24", "--levels", "12",
     "--probe-radius", "0"],
    ["boundary-sum", "--network", TRIANGLE, "--x", "1"],
    ["wiener", "--check", "resistance", "--x", "1", "--N", "2",
     "--samples", "10"],
    ["wiener", "--check", "boundary", "--network", TRIANGLE, "--x", "1",
     "--N", "2", "--samples", "10"],
], ids=["paths-off-the-ladder", "paths-probe-radius-0",
        "boundary-sum-without-u-kernel", "wiener-resistance-without-network",
        "wiener-boundary-off-the-ladder"])
def test_a_command_outside_its_domain_is_a_usage_error(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error")


@pytest.mark.parametrize("argv, err", [
    (["paths", *LADDER_09, "--levels", "4", "--horizon", "-1",
      "--probe-radius", "5"], "error [invalid-parameters]: a path prefix"),
    (["paths", *LADDER_09, "--levels", "4", "--horizon", "-1"],
     "error [invalid-parameters]: a path prefix"),
    (["wiener", "--check", "minlos", "--N", "3", "--samples", "100",
      "--n-checks", "0"], "usage error"),
    (["wiener", "--check", "minlos", "--N", "3", "--samples", "100",
      "--n-checks", "-2"], "usage error"),
    (["wiener", "--check", "minlos", "--N", "3", "--samples", "1",
      "--n-checks", "1"], "error [invalid-parameters]"),
], ids=["paths-horizon-below-0", "paths-horizon-below-0-default-probe",
        "wiener-no-checks", "wiener-negative-checks",
        "wiener-one-sample"])
def test_a_run_with_nothing_to_check_is_an_error(argv, err, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(err)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, err", [
    (["resist", "--network", "ladder", "--alpha", "5", "--beta", "0.9",
      "--x", "1", "--dim", "7"], "error [invalid-parameters]"),
    (["resist", "--network", TRIANGLE, "--x", "1", "--alpha", "5"],
     "usage error"),
])
def test_a_family_flag_the_network_does_not_take_is_an_error(argv, err, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(err)


MALFORMED = '{"edges": [[0,1,1]'


@pytest.mark.parametrize("where", ["inline", "file"])
def test_malformed_network_json_is_a_usage_error(where, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(MALFORMED)
    network = MALFORMED if where == "inline" else str(spec)
    assert main(["resist", "--network", network, "--x", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error")


@pytest.mark.parametrize("spec, where", [
    ("[1, 2]", "file"),
    ('{"edges": 5}', "inline"),
    ('{"edges": [[0, 1]]}', "inline"),
    ('{"family": "ladder", "params": [5]}', "inline"),
])
def test_a_network_spec_of_the_wrong_shape_is_an_error(spec, where, tmp_path,
                                                        capsys):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    network = spec if where == "inline" else str(path)
    assert main(["resist", "--network", network, "--x", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [invalid-parameters]")


def test_a_directory_as_the_network_spec_is_a_usage_error(tmp_path, capsys):
    assert main(["resist", "--network", str(tmp_path), "--x", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error")


def test_a_string_conductance_is_read_as_an_exact_rational(capsys):
    code, doc = run_cli(["resist", "--network", '{"edges": [[0, 1, "1/3"]]}',
                         "--x", "1"], capsys)
    assert code == 0
    assert doc["report"]["resistance"] == 3.0


@pytest.mark.parametrize("spec", [
    '{"edges": [[0, 1, "x"]]}',
    '{"edges": [[0, 1, 1]], "origin": "a"}',
    '{"edges": [[0, 1, 1]], "origin": 7}',
])
def test_a_conductance_or_origin_that_is_not_a_number_is_an_error(spec, capsys):
    assert main(["resist", "--network", spec, "--x", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [invalid-parameters]")


def test_a_spec_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_bytes(b"\xff\xfe{")
    assert main(["resist", "--network", str(spec), "--x", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error")


def test_an_unreadable_spec_file_is_a_usage_error(tmp_path, capsys, monkeypatch):
    import pathlib

    spec = tmp_path / "net.json"
    spec.write_text(TRIANGLE)

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(pathlib.Path, "read_text", denied)
    assert main(["resist", "--network", str(spec), "--x", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error")



@pytest.mark.parametrize("argv", [
    ["wiener", "--check", "minlos", "--N", "3", "--samples", "100",
     "--n-checks", "1"],
    ["walk", "--network", "integer-lattice", "--start", "1", "--target", "2",
     "--trials", "10"],
    ["verify-all", "--network", TRIANGLE],
])
@pytest.mark.parametrize("seed", ["-1", str(2 ** 63)])
def test_a_seed_outside_its_range_is_a_usage_error(argv, seed, capsys):
    assert main([*argv, "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error")

def test_config_records_the_resolved_network_spec(tmp_path, capsys):
    spec = tmp_path / "net.json"
    configs = []
    for c in (1, 2):
        spec.write_text(json.dumps({"edges": [[0, 1, 1], [1, 2, c]]}))
        code, doc = run_cli(["resist", "--network", str(spec), "--x", "1"],
                            capsys)
        assert code == 0
        configs.append(doc["config"])
    assert configs[0]["network"] == configs[1]["network"]
    assert configs[0]["network_spec"] != configs[1]["network_spec"]
    assert configs[0]["network_spec"]["family"] == "finite"
    _, doc = run_cli(["resist", "--network", "integer-lattice", "--x", "1",
                      "--levels", "3", "--tol", "1"], capsys)
    assert doc["config"]["network_spec"] == {"family": "integer-lattice",
                                             "params": {"d": 1}}


def test_wiener_lane_reaches_every_solve(capsys, monkeypatch):
    lanes = {}

    def recording(name, fn):
        def run(*args, lane, **kwargs):
            lanes[name] = lane
            return fn(*args, lane=lane, **kwargs)
        return run

    monkeypatch.setattr(resbdy.cli, "effective_resistance", recording(
        "resistance", resbdy.cli.effective_resistance))
    monkeypatch.setattr(resbdy.onb, "build_onb",
                        recording("onb", resbdy.onb.build_onb))
    code, _ = run_cli(["wiener", "--check", "resistance", "--network",
                       TRIANGLE, "--x", "1", "--y", "2", "--N", "2",
                       "--samples", "2000", "--lane", "fraction"], capsys)
    assert code in (0, 2)
    assert lanes == {"resistance": "fraction", "onb": "fraction"}


def test_a_window_past_the_float_range_is_not_a_traceback(capsys):
    # from radius ~52 the float ratio c_max/c_min of ladder(1000, 0.001)
    # overflows; tol 0 never converges, so the run exits 2
    code = main(["kernel", "--network", "ladder", "--alpha", "1000", "--beta",
                 "0.001", "--x", "2", "--levels", "60", "--tol", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err


def test_walk_from_a_vertex_off_the_network_is_a_clean_error(capsys):
    code = main(["walk", "--network", TRIANGLE, "--start", "999",
                 "--target", "1", "--trials", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error [invalid-parameters]")
    assert "Traceback" not in captured.err and captured.out == ""


def test_generate_radius_zero_of_a_finite_network_is_an_error(capsys):
    code = main(["generate", "--network", '{"edges": [[0, 1, 1]]}',
                 "--radius", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error [invalid-parameters]")
    assert captured.out == ""


def test_generate_radius_zero_of_a_family_is_an_error(capsys):
    # the ladder took radius 0 once; every family now rejects it
    code = main(["generate", "--network", "ladder", "--alpha", "5",
                 "--beta", "0.9", "--radius", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error [invalid-parameters]")
    assert captured.out == ""
