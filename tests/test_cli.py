from __future__ import annotations

import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

from weaklab import asymptotics, cli, contextual, files, linalg, montecarlo, povm
from weaklab.files import load_instance
from weaklab.registry import REGISTRY, get_instance


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- exit codes


def test_no_arguments_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "cv-solve" in out


def test_unknown_instance_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "--instance", "nope")
    assert code == 2
    assert "unknown instance" in err
    assert "qubit-linear" in err


def test_raw_family_cv_solve_needs_a(capsys):
    code, _, err = run(capsys, "cv-solve", "--instance", "eq70", "--g", "0.1")
    assert code == 2
    assert "--a" in err


def test_weaklab_error_maps_to_one(capsys):
    code, _, err = run(
        capsys, "weak-limit", "--instance", "flat", "--theta-f", "0.3927"
    )
    assert code == 1
    assert "error: NoExactCv" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cv-solve", "--instance", "qubit-linear", "--g", "5"],
        ["cv-solve", "--instance", "eq70", "--g", "0.6", "--a", "1,1"],
        ["mc-run", "--instance", "qubit-linear", "--g", "nan", "--trials", "10"],
        ["mc-run", "--instance", "qubit-linear", "--g", "5", "--trials", "10"],
        ["cv-solve", "--instance", "qubit-linear", "--g", "-0.1"],
        ["mc-run", "--instance", "qubit-linear", "--g", "-0.1", "--trials", "10"],
    ],
)
def test_coupling_outside_validity_range_fails(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "error: OutOfValidityRange" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, where",
    [
        (["cv-solve", "--instance", "eq70", "--g", "0.1", "--a", "1e308,-1e308"], "at g = 0.1"),
        (["pole-order", "--instance", "eq70", "--a", "1e308,1e308"], "at g = 0.1"),
    ],
)
def test_overflowing_contextual_values_are_an_error(capsys, argv, where):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: NoExactCv: contextual values overflow {where}\n"


def test_cv_solve_names_an_infinite_f_where_the_svd_converges(capsys, tmp_path):
    # F(g) = [[1, 1 + 1e300 g]] is [[1, inf]] at g = 2.4e8, inside g_max = 1e9
    path = tmp_path / "row.json"
    fmatrix = [{"order": 0, "matrix": [[[1.0, 0.0], [1.0, 0.0]]]},
               {"order": 1, "matrix": [[[0.0, 0.0], [1e300, 0.0]]]}]
    path.write_text(json.dumps({"dim": 1, "g_max": 1e9, "fmatrix": fmatrix}))
    code, out, err = run(capsys, "cv-solve", "--file", str(path), "--g", "2.4e8", "--a", "1")
    assert (code, out) == (1, "")
    assert err == "error: NoExactCv: F(g) is not finite at g = 240000000\n"


SUBNORMAL = str(Path(__file__).resolve().parent / "data" / "subnormal-sigma.json")


@pytest.mark.parametrize(
    "argv, g",
    [
        (["cv-solve", "--g", "0.01", "--a", "1,1"], "0.01"),
        (["pole-order", "--a", "1,1"], "0.1"),  # the first coupling of the descending ladder
        (["svd-asymptotics"], "2.44140625e-05"),  # it fits the ladder in ascending order
    ],
)
def test_subnormal_singular_value_is_refused_by_every_solve(capsys, argv, g):
    # diag(1e-300, 1e-310): 1/sigma overflows, which no command may print as nan or warn about
    code, out, err = run(capsys, *argv, "--file", SUBNORMAL)
    assert (code, out) == (1, "")
    assert err == f"error: NoExactCv: contextual values overflow at g = {g}\n"


def test_proof_claim_on_a_subnormal_family_solves_nothing(capsys):
    assert run(capsys, "proof-claim", "--file", SUBNORMAL)[0] == 0


@pytest.mark.parametrize(
    "argv, g",
    [
        (["--instance", "quad-cx", "--grid-max", "1e300"], "2.44140625e+296"),
        (["--file", str(Path(__file__).resolve().parent / "data" / "quad-cx-rotated-permuted.json"),
          "--grid-max", "1e200"], "2.44140625e+196"),
    ],
)
def test_weak_limit_whose_f_overflows_is_refused_without_a_traceback(capsys, argv, g):
    # weak_limit solves before its range rule: F(g) = inf leaves LAPACK's SVD
    # unconverged, which is NoExactCv at the ladder's smallest coupling, not a LinAlgError
    code, out, err = run(capsys, "weak-limit", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: NoExactCv: F(g) is not finite at g = {g}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["mc-run", "--instance", "qubit-linear", "--g", "0.1", "--trials", "0"],
        ["mc-run", "--instance", "qubit-linear", "--g", "0.1", "--seed", "-1"],
        ["conjecture-sweep", "--trials", "0"],
        ["conjecture-sweep", "--trials", "1", "--seed", "-1"],
        ["conjecture-sweep", "--trials", "1", "--dim", "1"],
        ["conjecture-sweep", "--trials", "1", "--dim", "2", "--n-out", "1"],
        ["conjecture-sweep", "--trials", "1", "--dim", "6"],
        ["truncation-check", "--instance", "quad-cx", "--n", "0"],
        ["truncation-check", "--instance", "quad-cx", "--n", "-1"],
        ["svd-asymptotics", "--instance", "eq70", "--n", "-1"],
    ]
    + [
        ["weak-limit", "--instance", "qubit-linear", "--theta-f", "0.3", "--grid-points", n]
        for n in ("0", "1", "2")
    ]
    + [
        ["cv-solve", "--instance", "eq70", "--g", "0.1", "--a", "nan,1"],
        ["cv-solve", "--instance", "eq70", "--g", "0.1", "--a", "inf,1"],
        ["pole-order", "--instance", "eq70", "--a", "1,inf"],
        ["weak-limit", "--instance", "qubit-linear", "--psi-f", "nan,1"],
        ["weak-limit", "--instance", "qubit-linear", "--theta-f", "inf"],
        ["conjecture-sweep", "--trials", "1", "--tol", "nan"],
        ["conjecture-sweep", "--trials", "1", "--tol", "-1"],
        ["weak-limit", "--instance", "qubit-linear", "--grid-min", "0.001", "--grid-max", "inf"],
        ["weak-limit", "--instance", "qubit-linear", "--grid-min", "nan"],
        ["mc-run", "--instance", "qubit-linear", "--g", "0.1", "--seed", str(2**128)],
        ["mc-run", "--instance", "qubit-linear", "--g", "0.1", "--trials", str(2**60)],
        ["mc-run", "--instance", "qubit-linear", "--g", "0.1", "--seed", "1" + "0" * 400],
        ["svd-asymptotics", "--instance", "eq70", "--n", "-1" + "0" * 400],
        # --a must give one value per row of F
        ["cv-solve", "--instance", "quad-cx", "--g", "0.1", "--a", "1,2"],
        ["cv-solve", "--instance", "eq70", "--g", "0.1", "--a", "1,2,3"],
        ["pole-order", "--instance", "quad-cx", "--a", "1,2"],
        ["pole-order", "--instance", "eq70", "--a", "1"],
    ],
)
def test_bad_flag_values_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "usage error" in err or "error: argument" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "grid_max, points, size",
    [
        # the 13-point grid holds 2 distinct floats among its 5 smallest, the
        # 3-point one 3 floats an ulp apart: both print as 0.05 and fitted a
        # limit near 1e29 or 6e15 with exit 0
        ("0.05000000000000001", [], 5),
        ("0.05000000000000001", ["--grid-points", "3"], 3),
        # 5 couplings printed apart, spanning 1e-8 and 1e-7 of the largest:
        # the fits extrapolated -241.65 and 0.575 against 0.414 with exit 0
        ("0.0500000005", ["--grid-points", "5"], 5),
        ("0.050000005", ["--grid-points", "5"], 5),
    ],
)
def test_weak_limit_refuses_a_fit_window_narrower_than_its_width_rule(
    capsys, grid_max, points, size
):
    code, out, err = run(
        capsys, "weak-limit", "--instance", "qubit-linear", "--theta-f", "0.3926990817",
        "--grid-min", "0.05", "--grid-max", grid_max, *points,
    )
    assert (code, out) == (2, "")
    assert err == (
        f"usage error: --grid-min and --grid-max are too close: the fit's {size} smallest "
        "couplings must span a relative width of at least 0.001\n"
    )


def test_weak_limit_takes_a_fit_window_just_wider_than_its_width_rule(capsys):
    code, out, err = run(
        capsys, "weak-limit", "--instance", "qubit-linear", "--theta-f", "0.3926990817",
        "--grid-min", "0.05", "--grid-max", "0.0501", "--grid-points", "5",
    )
    assert (code, err) == (0, "")
    line = next(ln for ln in out.splitlines() if "extrapolated" in ln)
    assert float(line.split(":")[1]) == pytest.approx(np.sqrt(2) - 1, abs=1e-5)


def test_unreadable_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "validate", "--file", str(tmp_path / "missing.json")
    )
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize(
    "argv, target",
    [
        (["validate", "--instance", "qubit-linear", "--out", "{d}/x.csv"], "{d}/x.csv"),
        (["registry", "export", "eq70", "--out", "{d}/x.json"], "{d}/x.json"),
        # the first failing trial is serialized next to --out before the CSV is written
        (
            ["conjecture-sweep", "--trials", "2", "--tol", "0", "--out", "{d}/s.csv"],
            "{d}/conjecture-fail-s0-t0.json",
        ),
    ],
)
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv, target):
    missing = tmp_path / "missing"
    code, _, err = run(capsys, *(a.format(d=missing) for a in argv))
    assert code == 2
    assert err.startswith(f"usage error: cannot write {target.format(d=missing)}: [Errno 2]")
    assert err.count("\n") == 1


# ------------------------------------------------------------------ validate


def test_validate_registry_povm(capsys):
    code, out, _ = run(capsys, "validate", "--instance", "qubit-linear")
    assert code == 0
    assert "validation PASSED" in out


@pytest.mark.parametrize("source", ["--file", "--instance"])
def test_validate_checks_the_povm_once(capsys, tmp_path, count_calls, source):
    # the loader's report serves the command; a registry POVM is validated by the command
    path = tmp_path / "qubit-linear.json"
    run(capsys, "registry", "export", "qubit-linear", "--out", str(path))
    validations = count_calls(povm, "validate")
    code, out, _ = run(capsys, "validate", source, str(path) if source == "--file" else "qubit-linear")
    assert code == 0
    assert "validation PASSED" in out
    assert validations[0] == 1


def test_validate_raw_family(capsys):
    code, out, _ = run(capsys, "validate", "--instance", "eq70")
    assert code == 0
    assert "raw 2 x 2 matrix family" in out


def test_out_for_a_command_without_a_table_is_usage_error(capsys, tmp_path):
    # validate has no table for a raw family: --out is refused before anything is printed
    path = tmp_path / "out.csv"
    code, out, err = run(capsys, "validate", "--instance", "eq70", "--out", str(path))
    assert (code, out) == (2, "")
    assert err == "usage error: validate writes no --out table for instance 'eq70'\n"
    assert not path.exists()


def test_validate_rejects_broken_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(
        json.dumps(
            {
                "dim": 2,
                "g_max": 0.5,
                "outcomes": [
                    [{"order": 0, "matrix": [[[0.6, 0], [0, 0]], [[0, 0], [0.6, 0]]]}],
                    [{"order": 0, "matrix": [[[0.6, 0], [0, 0]], [[0, 0], [0.6, 0]]]}],
                ],
            }
        )
    )
    code, _, err = run(capsys, "validate", "--file", str(path))
    assert code == 1
    assert "error: ValidationError" in err


def test_validate_rejects_overflowing_coupling_range(capsys, tmp_path):
    # F(g) overflows on the validation grid: refused at load, with no warning
    path = tmp_path / "overflow.json"
    diag = lambda x, y: [[[x, 0], [0, 0]], [[0, 0], [y, 0]]]
    outcomes = [
        [{"order": 0, "matrix": diag(0.5, 0.5)}, {"order": 1, "matrix": diag(2.0 * s, -2.0 * s)}]
        for s in (1, -1)
    ]
    path.write_text(json.dumps({"dim": 2, "g_max": 1e308, "outcomes": outcomes}))
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ValidationError: [BadValue]")
    assert "Warning" not in err


@pytest.mark.parametrize(
    "edit, refusal",
    [
        # completeness: outcome 0's order-0 diagonal moved off I/2 (COMPLETENESS_TOL 1e-12)
        ({"diagonal": 5e-13}, None),
        ({"diagonal": 2e-12}, "[Completeness]"),
        # positivity: 1/2 - g/2 at g_max is about -5e-11, then -2e-10 (PSD_GRID_TOL -1e-10)
        ({"g_max": 1 + 1e-10}, None),
        ({"g_max": 1 + 4e-10}, "[NotPositive]"),
    ],
)
def test_validate_file_tolerances_from_both_sides(capsys, tmp_path, edit, refusal):
    path = tmp_path / "edited.json"
    run(capsys, "registry", "export", "qubit-linear", "--out", str(path))
    data = json.loads(path.read_text())
    if "diagonal" in edit:
        [order0] = [rec for rec in data["outcomes"][0] if rec["order"] == 0]
        for i in range(2):
            order0["matrix"][i][i][0] += edit["diagonal"]
    else:
        data["g_max"] = edit["g_max"]
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", "--file", str(path))
    if refusal is None:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (1, "")
        assert err.startswith(f"error: ValidationError: {refusal}")


def test_quadratic_family_overflowing_its_range_is_bad_value(capsys, tmp_path):
    # 0 * g**2 is NaN off the diagonal at g ~ 1e308: NaN minimum, not a LinAlgError
    path = tmp_path / "quad.json"
    run(capsys, "registry", "export", "quad-cx", "--out", str(path))
    data = json.loads(path.read_text())
    data["g_max"] = 1e308
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err == (
        "error: ValidationError: [BadValue] at outcomes: "
        "outcome matrices are not finite on the validation grid\n"
    )


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize(
    "command",
    [
        ["validate"],
        ["pole-order", "--a", "1"],
        ["svd-asymptotics"],
        ["proof-claim"],
        ["cv-solve", "--g", "0.1", "--a", "1"],
    ],
)
def test_raw_family_without_columns_is_refused_at_load(capsys, tmp_path, degree, command):
    path = tmp_path / "empty.json"
    records = [{"order": k, "matrix": [[]]} for k in range(degree + 1)]
    path.write_text(json.dumps({"dim": 1, "g_max": 0.5, "fmatrix": records}))
    code, out, err = run(capsys, command[0], "--file", str(path), *command[1:])
    assert code == 1
    assert out == ""
    assert err == (
        "error: ValidationError: [BadShape] at fmatrix[0]: a raw family needs at least one column\n"
    )


def test_huge_coefficient_order_is_refused_before_allocating(capsys, tmp_path):
    # decoding order 10**9 densely needs more than 100 GB; the child caps its own
    # address space, so a loader that allocated ends in MemoryError, not an OOM kill
    path = tmp_path / "huge-order.json"
    run(capsys, "registry", "export", "qubit-linear", "--out", str(path))
    data = json.loads(path.read_text())
    data["outcomes"][0][1]["order"] = 10**9
    path.write_text(json.dumps(data))
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import resource, sys; "
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
        "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, hard)); "
        "from weaklab.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "validate", "--file", str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: ValidationError: [Schema] at outcomes[0][1]: "
        f"order must be at most {files.MAX_ORDER}\n"
    )


@pytest.mark.parametrize("g_max", [float("inf"), 5e-324])
@pytest.mark.parametrize("command", [["validate"], ["weak-limit", "--theta-f", "0.3"]])
def test_g_max_infinite_or_underflowing_is_refused_at_load(capsys, tmp_path, g_max, command):
    # inf passed degree 0 with a RuntimeWarning; 5e-324 puts 0 on the validation grid
    path = tmp_path / "range.json"
    run(capsys, "registry", "export", "qubit-linear", "--out", str(path))
    data = json.loads(path.read_text())
    data["g_max"] = g_max
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command[0], "--file", str(path), *command[1:])
    assert code == 1
    assert out == ""
    assert err == "error: ValidationError: [Schema] at g_max: g_max must be positive and finite\n"


def test_g_max_integer_beyond_float_range_is_refused_at_load(capsys, tmp_path):
    path = tmp_path / "huge.json"
    run(capsys, "registry", "export", "qubit-linear", "--out", str(path))
    data = json.loads(path.read_text())
    data["g_max"] = 10**400
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: ValidationError: [Schema] at g_max: g_max must be positive and finite\n"


def test_coefficients_at_the_top_of_the_float_range_name_the_failing_pair(capsys):
    # outcomes I/2 +- g 2**1023 X and observable Z: the pairwise pre-test scales them by
    # a finite 2**1023, so it refuses (observable, outcome 0's order 1) with no overflow warning
    path = str(Path(__file__).resolve().parent / "data" / "huge-coefficients.json")
    assert run(capsys, "validate", "--file", path)[0] == 0
    code, out, err = run(capsys, "cv-solve", "--file", path, "--g", "4e-309")
    assert (code, out) == (1, "")
    assert err == (
        "error: NotCommuting: observable and outcome 0, order 1 do not commute (commutator norm inf)\n"
    )


def test_non_utf8_file_is_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"dim": 2}')
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: ParseError: {path}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [["validate"], ["cv-solve", "--g", "0.1", "--a", "1,1"]])
def test_file_with_outcomes_and_fmatrix_is_error(capsys, tmp_path, command):
    path = tmp_path / "both.json"
    run(capsys, "registry", "export", "qubit-linear", "--out", str(path))
    data = json.loads(path.read_text())
    data["fmatrix"] = [{"order": 0, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}]
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command[0], "--file", str(path), *command[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ValidationError: [Schema]")
    assert "Traceback" not in err


def test_validate_csv(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(
        capsys, "validate", "--instance", "qubit-linear", "--out", str(out_path)
    )
    assert code == 0
    assert f"wrote {out_path}" in out
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["g", "min_eig_0", "min_eig_1"]
    assert all(float(r[1]) >= -1e-12 for r in rows[1:])


# ------------------------------------------------------------------ cv-solve


def test_cv_solve_qubit_linear_from_file(capsys, tmp_path):
    path = tmp_path / "ql.json"
    code, _, _ = run(
        capsys, "registry", "export", "qubit-linear", "--out", str(path)
    )
    assert code == 0
    code, out, _ = run(capsys, "cv-solve", "--file", str(path), "--g", "0.1")
    assert code == 0
    assert "alpha = [10, -10]" in out
    assert "(exact solution)" in out


def test_cv_solve_eq70_reference_point(capsys):
    code, out, _ = run(
        capsys, "cv-solve", "--instance", "eq70", "--g", "0.1", "--a", "1,1"
    )
    assert code == 0
    assert "alpha = [-190, 210]" in out
    assert "rank used = 2" in out


@pytest.mark.parametrize(
    "argv", [["--instance", "eq70", "--a", "1,1"], ["--instance", "qubit-linear", "--a", "2,0"],
             ["--instance", "qubit-linear"]]
)
def test_cv_solve_is_one_library_call(capsys, monkeypatch, argv):
    # the range check and the solve are contextual.solve_coupling's, on an F that carries g_max
    calls = []

    def spied(F, g):
        calls.append((F.g_max, g))
        return contextual.solve_coupling(F, g)

    monkeypatch.setattr(cli, "solve_coupling", spied)
    code, _, _ = run(capsys, "cv-solve", *argv, "--g", "0.1")
    assert code == 0
    assert calls == [(get_instance(argv[1]).g_max, 0.1)]
    assert not hasattr(cli, "check_coupling") and not hasattr(cli, "solve_grid")


@pytest.mark.parametrize(
    "delta, a_line", [(9e-9, "a     = [0.999999991, 1]"), (1.1e-8, "a     = [1, 0.999999989]")]
)
def test_cv_solve_eigenvalue_ties_follow_the_degeneracy_tolerance(capsys, tmp_path, delta, a_line):
    # observable diag(1, 1 - delta) on outcomes (I -+ g Z)/2: within 1e-8 its eigenvalues tie,
    # and outcome 0's order-1 coefficient diag(-1/2, 1/2) puts the second one first
    I2, Z = np.eye(2), np.diag([1.0, -1.0])
    elements = (povm.PolyMatrix([I2 / 2, -Z / 2]), povm.PolyMatrix([I2 / 2, Z / 2]))
    spec = files.InstanceSpec(
        name="tie", povm=povm.ParamPovm(elements, g_max=0.9), observable=np.diag([1.0, 1.0 - delta])
    )
    path = tmp_path / "tie.json"
    files.save_instance(spec, path)
    code, out, err = run(capsys, "cv-solve", "--file", str(path), "--g", "0.1")
    assert (code, err) == (0, "")
    assert a_line in out.splitlines()


def test_cv_solve_verdict_follows_the_exactness_tolerance(capsys, monkeypatch):
    argv = ("cv-solve", "--instance", "flat", "--g", "0.05")  # residual sqrt(2)
    _, out, _ = run(capsys, *argv)
    assert "residual = 1.414214e+00  (no exact solution)" in out
    monkeypatch.setattr(contextual, "EXACT_CV_TOL", 2.0)
    _, out, _ = run(capsys, *argv)
    assert "residual = 1.414214e+00  (exact solution)" in out


def test_cv_solve_out_csv(capsys, tmp_path):
    path = tmp_path / "cv.csv"
    code, out, _ = run(capsys, "cv-solve", "--instance", "qubit-linear", "--g", "0.1",
                       "--out", str(path))
    assert code == 0
    assert out.endswith(f"rank used = 2\nwrote {path}\n")
    assert path.read_bytes().decode() == (
        "g,residual,rank,alpha_0,alpha_1\r\n"
        "0.10000000000000001,1.2560739669470201e-15,2,9.9999999999999893,-9.9999999999999893\r\n"
    )


def test_cv_solve_residual_of_huge_target_is_finite(capsys):
    # the residual's entries are near 7e285: squared without scaling they overflow
    code, out, _ = run(capsys, "cv-solve", "--instance", "eq70", "--g", "0.1",
                       "--a", "1e300,-1e300")
    assert code == 0
    assert "residual = 1.012919e+286  (no exact solution)" in out


# ---------------------------------------------------------------- pole-order


def test_pole_order_quad_cx(capsys, tmp_path):
    out_path = tmp_path / "pole.csv"
    code, out, _ = run(
        capsys, "pole-order", "--instance", "quad-cx", "--out", str(out_path)
    )
    assert code == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("pole order"))
    order = float(line.split("=")[1].split("(")[0])
    assert order == pytest.approx(2.0, abs=0.05)
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["g", "alpha_sup"]
    assert len(rows) > 10
    assert "rank of F(g)" not in out


def test_pole_order_csv_comes_from_the_fitted_solve(capsys, tmp_path, count_calls):
    solves = count_calls(linalg, "pinv_and_rank")
    code, _, _ = run(
        capsys, "pole-order", "--instance", "quad-cx", "--out", str(tmp_path / "pole.csv")
    )
    assert code == 0
    assert solves[0] == 1


def rank_drop_file(tmp_path):
    """Raw family diag(1, g**4): its rank falls to 1 below g ~ 1.2e-3."""
    zero = [[0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "rank-drop.json"
    path.write_text(
        json.dumps(
            {
                "dim": 2,
                "g_max": 0.5,
                "fmatrix": [
                    {"order": 0, "matrix": [[[1.0, 0.0], zero[0]], [zero[0], zero[0]]]},
                    {"order": 4, "matrix": [[zero[0], zero[0]], [zero[0], [1.0, 0.0]]]},
                ],
            }
        )
    )
    return str(path)


def test_rank_drop_is_reported(capsys, tmp_path):
    path = rank_drop_file(tmp_path)
    # alpha_2(g) = g**-4 while the rank holds, and the pseudoinverse drops it after
    _, out, _ = run(capsys, "cv-solve", "--file", path, "--g", "0.01", "--a", "1,1")
    assert "alpha = [1, 100000000]" in out
    assert "(exact solution)" in out and "rank used = 2" in out
    _, out, _ = run(capsys, "cv-solve", "--file", path, "--g", "0.001", "--a", "1,1")
    assert "residual = 1.000000e+00  (no exact solution)" in out and "rank used = 1" in out
    # the drop covers the whole six-point fit window, which then reads order 0
    code, out, _ = run(capsys, "pole-order", "--file", path, "--a", "1,1")
    assert code == 0
    assert "fit r^2      = 1.000000000  [UNRELIABLE]" in out
    assert (
        "rank of F(g) changes along the grid: "
        "rank 1 from g = 2.44140625e-05, rank 2 from g = 0.0015625"
    ) in out
    _, out, _ = run(capsys, "svd-asymptotics", "--file", path)
    assert sum("[UNRELIABLE]" in ln for ln in out.splitlines() if ln.startswith("pole order")) == 2


# ---------------------------------------------------------- truncation-check


def test_truncation_check_quad_cx(capsys):
    code, out, _ = run(
        capsys, "truncation-check", "--instance", "quad-cx", "--n", "1"
    )
    assert code == 0
    assert "full family solvable:      True" in out
    assert "truncated family solvable: False" in out
    assert "contextual values match:   False" in out


def test_truncation_check_out_csv(capsys, tmp_path):
    path = tmp_path / "tc.csv"
    code, out, _ = run(capsys, "truncation-check", "--instance", "quad-cx", "--n", "1",
                       "--out", str(path))
    assert code == 0
    assert out.endswith(f"contextual values match:   False\nwrote {path}\n")
    rows = path.read_bytes().decode().split("\r\n")
    assert rows[0] == "g,full_residual,truncated_residual"
    assert rows[1] == "0.01,1.2862197713967053e-12,1.4142135623730951"
    assert rows[5] == "0.04147699404454562,7.0683339686648436e-17,1.4142135623730951"
    assert rows[12] == "0.5,1.0363836789455734e-15,1.4142135623730951"
    assert rows[13:] == [""]


def test_truncation_check_identity_for_linear(capsys):
    code, out, _ = run(
        capsys, "truncation-check", "--instance", "qubit-linear", "--n", "1"
    )
    assert code == 0
    assert "contextual values match:   True" in out


@pytest.mark.parametrize("c, match", [(1e-8, True), (4e-8, False)])
def test_truncation_check_alpha_tolerance_from_both_sides(capsys, tmp_path, c, match):
    # E+- = (I +- g Z +- c g^2 Z) / 2 on the default grid geomspace(0.01, 0.5, 12):
    # truncation moves alpha by 5e-9 and 2e-8 relative, either side of 1e-8
    I2, Z = np.eye(2), np.diag([1.0, -1.0])
    elements = tuple(
        povm.PolyMatrix([I2 / 2, s * Z / 2, s * c * Z / 2]) for s in (1, -1)
    )
    spec = files.InstanceSpec(
        name="quadratic-tail", povm=povm.ParamPovm(elements=elements, g_max=0.5), observable=Z
    )
    path = tmp_path / "quadratic-tail.json"
    files.save_instance(spec, path)
    code, out, _ = run(
        capsys, "truncation-check", "--n", "1", "--truncate-mode", "eq13", "--file", str(path)
    )
    assert code == 0
    assert "full family solvable:      True" in out
    assert "truncated family solvable: True" in out
    assert f"contextual values match:   {match}\n" in out


# ---------------------------------------------------------------- weak-limit


def test_weak_limit_reference_point(capsys):
    code, out, _ = run(
        capsys,
        "weak-limit",
        "--instance",
        "qubit-linear",
        "--theta-f",
        "0.39269908169872414",
    )
    assert code == 0
    line = next(ln for ln in out.splitlines() if "extrapolated" in ln)
    value = float(line.split(":")[1])
    assert value == pytest.approx(np.sqrt(2) - 1, abs=1e-4)
    disc = next(ln for ln in out.splitlines() if "discrepancy" in ln)
    assert float(disc.split(":")[1]) < 1e-6


def test_weak_limit_custom_grid_csv(capsys, tmp_path):
    out_path = tmp_path / "wl.csv"
    code, out, _ = run(
        capsys,
        "weak-limit",
        "--instance",
        "qubit-linear",
        "--grid-min",
        "0.001",
        "--grid-max",
        "0.05",
        "--grid-points",
        "9",
        "--out",
        str(out_path),
    )
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["g", "conditioned_average", "success_probability"]
    assert len(rows) == 10
    gs = [float(r[0]) for r in rows[1:]]
    assert gs == sorted(gs)
    assert gs[0] == pytest.approx(0.001)
    assert gs[-1] == pytest.approx(0.05)


def test_weak_limit_takes_a_final_state_the_loader_accepts(capsys, tmp_path):
    # a norm 1 + 8e-11 is within the loader's unit-norm tolerance, so the
    # limit must be the normalized file's, not an error about |psi_f><psi_f|
    path = tmp_path / "ql.json"
    run(capsys, "registry", "export", "qubit-linear", "--out", str(path))

    def limit():
        code, out, err = run(capsys, "weak-limit", "--file", str(path))
        assert (code, err) == (0, "")
        return float(next(ln for ln in out.splitlines() if "extrapolated" in ln).split(":")[1])

    normalized = limit()
    data = json.loads(path.read_text())
    data["psi_f"] = [[x * (1 + 8e-11) for x in entry] for entry in data["psi_f"]]
    path.write_text(json.dumps(data))
    assert limit() == pytest.approx(normalized, abs=1e-9)


WEAK_LIMIT_PSI_F_2_1 = """\
instance qubit-linear: weak limit along 13 couplings
             g   conditioned avg   success prob
2.44140625e-05       0.333333333    0.900000000
 4.8828125e-05       0.333333334    0.900000000
  9.765625e-05       0.333333334    0.899999998
  0.0001953125       0.333333336    0.899999992
   0.000390625       0.333333345    0.899999969
    0.00078125       0.333333379    0.899999878
     0.0015625       0.333333514    0.899999512
      0.003125       0.333334057    0.899998047
       0.00625       0.333336227    0.899992187
        0.0125       0.333344908    0.899968749
         0.025       0.333379643    0.899874980
          0.05       0.333518737    0.899499687
           0.1       0.334077593    0.897994975
quadratic fit (c0 + c1 g + c2 g^2): [0.333333333, -1.2734213e-07, 0.0743233005]
extrapolated limit: 0.333333333
traditional value:  0.333333333
discrepancy:        1.239e-11
"""


@pytest.mark.parametrize(
    "psi_f, same_as",
    [
        ("2,1", None),
        ("2,0,1,0", None),
        # norms that overflow or underflow read as the exact power-of-two rescale
        # whose largest entry is in [1, 2): 1e308 = 1.1125369292536007 * 2**1023
        # and 1e-320 = 1.9765625 * 2**-1064
        ("1e308,1e308", "1.1125369292536007,1.1125369292536007"),
        ("0,1e-320", "0,1.9765625"),
        ("1e-320,1e-320", "1.9765625,1.9765625"),
        ("1e-320,0,0,1e-320", "1.9765625,0,0,1.9765625"),
        # each entry is divided by the norm, not multiplied by its reciprocal,
        # which leaves (0, 1.9765625) an ulp short of (0, 1)
        ("0,1.9765625", "0,1"),
        ("3,4", "0.6,0.8"),
    ],
    ids=["real", "interleaved", "overflow", "underflow", "underflow-both", "underflow-complex", "exact", "exact-3-4"],
)
def test_weak_limit_psi_f_is_normalized_in_either_form(capsys, psi_f, same_as):
    code, out, err = run(capsys, "weak-limit", "--instance", "qubit-linear", "--psi-f", psi_f)
    assert (code, err) == (0, "")
    if same_as is None:
        assert out == WEAK_LIMIT_PSI_F_2_1
    else:
        assert out == run(capsys, "weak-limit", "--instance", "qubit-linear", "--psi-f", same_as)[1]
        state = cli._parse_state(psi_f, 2)
        assert state.tobytes() == cli._parse_state(same_as, 2).tobytes()
        assert np.all(np.isfinite(state.view(float)))
        assert abs(np.linalg.norm(state) - 1) < 1e-15


def test_weak_limit_psi_f_takes_imaginary_parts(capsys):
    # interleaved re,im: psi_f = (0.8, 0.6i)
    code, out, err = run(
        capsys, "weak-limit", "--instance", "qubit-linear", "--psi-f", "0.8,0,0,0.6"
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-4:] == [
        "quadratic fit (c0 + c1 g + c2 g^2): [0.28, -1.98427987e-08, 3.7164278e-05]",
        "extrapolated limit: 0.280000000",
        "traditional value:  0.280000000",
        "discrepancy:        2.295e-12",
    ]


@pytest.mark.parametrize(
    "psi_f, message",
    [
        ("1,0,0", "--psi-f needs 2 reals or 4 interleaved re,im values"),
        ("0,0", "--psi-f is the zero vector"),
    ],
)
def test_weak_limit_psi_f_usage_errors(capsys, psi_f, message):
    code, out, err = run(capsys, "weak-limit", "--instance", "qubit-linear", "--psi-f", psi_f)
    assert (code, out, err) == (2, "", f"usage error: {message}\n")


# ----------------------------------------------------- asymptotics and claim


def test_svd_asymptotics_eq70(capsys):
    code, out, _ = run(capsys, "svd-asymptotics", "--instance", "eq70")
    assert code == 0
    assert "do NOT commute" in out
    assert "claim holds: false" in out
    assert "proof-claim verdict: counterexample_found=true" in out


def test_short_rank_series_fits_tag_the_verdict_without_stray_warnings(capsys):
    # degree 11 on 13 geometric couplings loses rank at rcond 13 eps: each trajectory's fit
    # warns RankWarning, which the command keeps as data (an error in this suite if it escaped)
    code, out, err = run(capsys, "svd-asymptotics", "--instance", "eq70", "--n", "8")
    assert (code, err) == (0, "")
    assert "order-8 truncation vs singular-value expansion: do NOT commute  [UNRELIABLE]\n" in out
    # the default order's fits have full rank
    assert "do NOT commute\n" in run(capsys, "svd-asymptotics", "--instance", "eq70")[1]


def test_svd_asymptotics_skips_audit_for_quadratic(capsys):
    code, out, _ = run(capsys, "svd-asymptotics", "--instance", "quad-cx")
    assert code == 0
    assert "proof-claim audit skipped" in out


def test_proof_claim_eq70(capsys, tmp_path):
    out_path = tmp_path / "claim.csv"
    code, out, _ = run(
        capsys, "proof-claim", "--instance", "eq70", "--out", str(out_path)
    )
    assert code == 0
    assert "counterexample_found=true" in out
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trajectory", "exponent", "coefficient", "fit_r2", "zero"]
    exponents = sorted(float(r[1]) for r in rows[1:])
    assert exponents[0] == pytest.approx(0.0, abs=0.05)
    assert exponents[1] == pytest.approx(2.0, abs=0.05)


def test_proof_claim_verdict_survives_a_small_rescale(capsys, tmp_path):
    # eq70 * 2**-35 has the same singular-value orders as eq70 itself
    path = tmp_path / "eq70-small.json"
    run(capsys, "registry", "export", "eq70", "--out", str(path))
    data = json.loads(path.read_text())
    for term in data["fmatrix"]:
        term["matrix"] = (2.0**-35 * np.array(term["matrix"], dtype=float)).tolist()
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "proof-claim", "--file", str(path))
    assert (code, err) == (0, "")
    assert "identically-zero" not in out
    assert "counterexample_found=true" in out


def raw_family_file(path, g_max, *matrices):
    """Write a raw 2 x 2 family whose order-k matrix is the real matrices[k]; return its path."""
    fmatrix = [
        {"order": k, "matrix": [[[float(x), 0.0] for x in row] for row in m]}
        for k, m in enumerate(matrices)
    ]
    path.write_text(json.dumps({"dim": 2, "g_max": g_max, "fmatrix": fmatrix}))
    return str(path)


@pytest.mark.parametrize(
    "delta, line",
    [
        ("9e-12", "identically-zero trajectories: [1]"),
        ("1.1e-11", "sigma_2: leading order 1, coefficient 1.1e-11, r^2 1.000000"),
    ],
)
def test_proof_claim_zero_trajectory_tolerance_from_both_sides(capsys, tmp_path, delta, line):
    # diag(1, delta g): on the ladder topped at 0.1, sigma_2 peaks at 9e-13 or 1.1e-12,
    # either side of 1e-12 times sigma_1's 1
    path = raw_family_file(tmp_path / "zero-trajectory.json", 0.5, [[1, 0], [0, 0]], [[0, 0], [0, float(delta)]])
    code, out, err = run(capsys, "proof-claim", "--file", path)
    assert (code, err) == (0, "")
    assert line in out.splitlines()
    assert "claim holds: true" in out


@pytest.mark.parametrize(
    "eps, line, verdict",
    [
        ("3e-6", "sigma_2: leading order 1.015899, coefficient 1.12879357, r^2 0.999946", "true"),
        ("5e-5", "sigma_2: leading order 1.23663328, coefficient 6.00084047, r^2 0.993617  [UNRELIABLE]",
         "false"),
    ],
)
def test_proof_claim_first_order_tolerance_from_both_sides(capsys, tmp_path, eps, line, verdict):
    # [[g, eps], [0, g]]: sigma_2's fitted order lands either side of 1.05
    path = raw_family_file(tmp_path / "first-order.json", 0.5, [[0, float(eps)], [0, 0]], [[1, 0], [0, 1]])
    code, out, err = run(capsys, "proof-claim", "--file", path)
    assert (code, err) == (0, "")
    assert line in out.splitlines()
    assert f"claim holds: {verdict}" in out.splitlines()


@pytest.mark.parametrize("command", ["proof-claim", "svd-asymptotics"])
def test_a_ladder_on_which_f_is_not_finite_is_refused(capsys, tmp_path, command):
    # 1.7e308 + 1e308 g overflows at the ladder's top coupling 0.1 alone: no fit may drop
    # that row, and no overflow warning may escape before the one error line
    path = raw_family_file(tmp_path / "overflow.json", 0.5, [[1.7e308, 0], [0, 1]], [[1e308, 0], [0, 0]])
    code, out, err = run(capsys, command, "--file", path)
    assert (code, out, err) == (1, "", "error: NoExactCv: F(g) is not finite at g = 0.1\n")


def eq70_file(tmp_path, k):
    """eq70, [[1 + g, 1], [-1, -1 + g]], times 2**k as a raw family file; return its path."""
    s = 2.0**k
    return raw_family_file(tmp_path / f"eq70-{k}.json", 0.5, [[s, s], [-s, -s]], [[s, 0], [0, s]])


def test_pole_order_of_a_large_family_is_fitted_not_zero(capsys, tmp_path):
    # at 2**80, max||alpha(g)|| is below 1e-12 max|a|, but not once times max|F(g)|
    code, out, err = run(capsys, "pole-order", "--file", eq70_file(tmp_path, 80), "--a", "1,1")
    assert (code, err) == (0, "")
    assert "vanishes" not in out
    assert "pole order   = 1.99989894   (||alpha(g)|| ~ g^-order)" in out.splitlines()


@pytest.mark.parametrize("k, g", [(520, "0.00625"), (1000, "2.44140625e-05")])
def test_svd_asymptotics_names_the_first_coupling_where_det_overflows(capsys, tmp_path, k, g):
    # |det F(g)| = 2**(2k) g**2 overflows from g = 0.00625 up (k = 520), or on the whole ladder
    code, out, err = run(capsys, "svd-asymptotics", "--file", eq70_file(tmp_path, k))
    assert (code, err) == (0, "")
    assert f"\ndet consistency: |det F| or prod(sigma) is not finite at g = {g}\n" in out
    assert "\npole order for a = [1, 1]: 1.99989892 (coefficient " in out


def test_svd_asymptotics_keeps_the_degree_of_a_tiny_family(capsys, tmp_path):
    # every coefficient of eq70 times 2**-40 is at most 9.1e-13: only an exactly zero
    # coefficient is trimmed, so the family stays linear and the counterexample stands
    code, out, err = run(capsys, "svd-asymptotics", "--file", eq70_file(tmp_path, -40))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "instance eq70--40: 2 x 2 family, degree 1"
    assert "proof-claim verdict: counterexample_found=true" in lines
    assert "pole order for a = [1, 1]: 1.99989894 (coefficient 2.20128142e+12, r^2 1.000000)" in lines


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_svd_asymptotics_does_its_work_once(capsys, count_calls, name):
    # one SVD of the family (table, commutator and audit) and one of its truncation,
    # one stacked pseudoinverse for both probes, and F evaluated once per SVD plus
    # once for the determinant and the probes
    curves = count_calls(asymptotics, "svd_curve")
    pinvs = count_calls(linalg, "pinv_and_rank")
    evaluations = count_calls(povm, "_horner")
    assert run(capsys, "svd-asymptotics", "--instance", name)[0] == 0
    assert (curves[0], pinvs[0]) == (2, 1)
    assert evaluations[0] <= 3


@pytest.mark.parametrize("name", ["qubit-linear", "eq70"])
def test_g_to_zero_analyses_stay_inside_a_small_g_max(capsys, tmp_path, monkeypatch, name):
    # every g -> 0 ladder is limit_grid(g_max), topped at min(0.1, g_max)
    path = tmp_path / f"{name}.json"
    run(capsys, "registry", "export", name, "--out", str(path))
    data = json.loads(path.read_text())
    data["g_max"] = 0.02
    path.write_text(json.dumps(data))
    tops = []  # the largest coupling of every grid read or written
    svd_curve = asymptotics.svd_curve

    def recording(F, g_grid):
        tops.append(float(np.max(g_grid)))
        return svd_curve(F, g_grid)

    monkeypatch.setattr(asymptotics, "svd_curve", recording)
    a = ["--a", "1,1"] if name == "eq70" else []
    commands = [["pole-order", *a], ["svd-asymptotics"], ["proof-claim"]]
    if name == "qubit-linear":
        commands.append(["weak-limit", "--theta-f", "0.3"])
    for command in commands:
        out_path = tmp_path / "out.csv"
        argv = [command[0], "--file", str(path), *command[1:], "--out", str(out_path)]
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if "g" in rows[0]:
            tops.append(max(float(r["g"]) for r in rows))
    assert max(tops) == 0.02


def test_proof_claim_rejects_nonlinear(capsys):
    code, _, err = run(capsys, "proof-claim", "--instance", "quad-cx")
    assert code == 1
    assert "error: NotLinear" in err


# ----------------------------------------------------------- conjecture sweep


def test_conjecture_sweep_csv_schema(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys,
        "conjecture-sweep",
        "--trials",
        "5",
        "--seed",
        "11",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert "5/5 trials passed" in out
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["seed", "trial", "dim", "n_out", "g_min", "discrepancy", "pass"]
    assert len(rows) == 6
    for i, row in enumerate(rows[1:]):
        assert row[0] == "11"
        assert row[1] == str(i)
        assert row[6] == "true"
        assert float(row[5]) <= 1e-3


@pytest.mark.parametrize("dim, n_out", [("4", "2"), ("2", "2000000000")])
def test_conjecture_sweep_refuses_a_shape_no_draw_can_pass(capsys, dim, n_out):
    code, out, err = run(
        capsys, "conjecture-sweep", "--trials", "1", "--dim", dim, "--n-out", n_out
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: GenerationFailed: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "n_out, message",
    [
        # the smallest of 1000 weights summing to 1 is at most the 1e-3 floor
        ("1000", "no instance with n_out=1000: the smallest outcome weight is at most 1/n_out, "
                 "at or below the floor 0.001"),
        # 1/999 is above the floor, so the draws are tried and refused
        ("999", "no admissible instance in 100 attempts (dim=2, n_out=999)"),
    ],
)
def test_conjecture_sweep_weight_floor_is_one_in_a_thousand(capsys, n_out, message):
    code, out, err = run(capsys, "conjecture-sweep", "--trials", "1", "--dim", "2", "--n-out", n_out)
    assert (code, out, err) == (1, "", f"error: GenerationFailed: {message}\n")


def test_conjecture_sweep_fixed_shape(capsys):
    code, out, _ = run(
        capsys,
        "conjecture-sweep",
        "--trials",
        "3",
        "--seed",
        "4",
        "--dim",
        "3",
        "--n-out",
        "4",
    )
    assert code == 0
    assert "dim 3, n_out 4" in out


@pytest.mark.parametrize("argv", [("--n-out", "2"), ("--n-out", "3", "--seed", "2")])
def test_conjecture_sweep_with_few_outcomes_draws_dim_at_most_n_out(capsys, argv):
    # a free dim is drawn no larger than the fixed n_out, so no trial asks
    # the generator for a shape it must refuse
    code, out, err = run(capsys, "conjecture-sweep", "--trials", "5", *argv)
    assert (code, err) == (0, "")
    assert "5/5 trials passed" in out
    dims = [int(d) for d in re.findall(r"dim (\d+), n_out " + argv[1], out)]
    assert len(dims) == 5 and max(dims) <= int(argv[1])


# --------------------------------------------------------------------- mc-run


def test_mc_run_is_deterministic(capsys):
    argv = [
        "mc-run",
        "--instance",
        "qubit-linear",
        "--g",
        "0.1",
        "--trials",
        "2000",
        "--seed",
        "1",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "empirical" in out1 and "analytic" in out1
    line = next(ln for ln in out1.splitlines() if ln.startswith("successes"))
    successes = int(line.split("=")[1].split("/")[0])
    assert 0 < successes < 2000


def test_mc_run_out_csv(capsys, tmp_path):
    path = tmp_path / "mc.csv"
    code, out, _ = run(capsys, "mc-run", "--instance", "qubit-linear", "--g", "0.1",
                       "--trials", "2000", "--seed", "1", "--out", str(path))
    assert code == 0
    assert out.endswith(f"per-outcome counts: [891, 800]\nwrote {path}\n")
    assert path.read_bytes().decode() == (
        "g,trials,seed,empirical_value,stderr,successes,analytic_value\r\n"
        "0.10000000000000001,2000,1,0.53814311058545183,0.24289964566750999,1691,"
        "0.41507537155096519\r\n"
    )


def test_mc_run_refuses_weights_that_do_not_reproduce_the_observable(capsys):
    # at g = 0 qubit-linear's outcomes are both I/2, so no weights reproduce Z
    argv = ["--instance", "qubit-linear", "--g", "0"]
    assert "(no exact solution)" in run(capsys, "cv-solve", *argv)[1]
    code, out, err = run(capsys, "mc-run", *argv, "--trials", "1000", "--seed", "1")
    assert (code, out) == (1, "")
    assert err == "error: NoExactCv: no exact contextual values at g = 0 (residual 1.414e+00)\n"


def test_mc_run_without_final_state_names_no_flag(capsys):
    # mc-run has no --psi-f or --theta-f; weak-limit keeps its own hint
    code, out, err = run(capsys, "mc-run", "--instance", "flat", "--g", "0.1")
    assert code == 2
    assert out == ""
    assert err == "usage error: instance 'flat' has no final state\n"
    code, _, err = run(capsys, "weak-limit", "--instance", "flat")
    assert code == 2
    assert err == "usage error: no final state: pass --theta-f or --psi-f\n"


def test_mc_run_takes_any_128_bit_seed(capsys):
    argv = ["mc-run", "--instance", "qubit-linear", "--g", "0.1", "--trials", "10"]
    code, out, _ = run(capsys, *argv, "--seed", str(2**128 - 1))
    assert code == 0
    assert f"seed {2**128 - 1}" in out


def test_mc_run_out_of_memory_is_usage_error(capsys, monkeypatch):
    # a refused allocation is simulated: a real one this large could be granted
    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(montecarlo, "sample_run", refuse)
    code, out, err = run(
        capsys, "mc-run", "--instance", "qubit-linear", "--g", "0.1", "--trials", "10000000000000"
    )
    assert code == 2
    assert err == "usage error: --trials 10000000000000 needs more memory than is available\n"
    assert out == ""


def test_weak_limit_out_of_memory_grid_is_usage_error(capsys, monkeypatch):
    # the refused allocation is simulated, so no real huge grid is requested
    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.np, "geomspace", refuse)
    code, out, err = run(
        capsys, "weak-limit", "--instance", "qubit-linear", "--theta-f", "0.39",
        "--grid-points", "10000000000000",
    )
    assert code == 2
    assert err == "usage error: --grid-points 10000000000000 needs more memory than is available\n"
    assert out == ""


OBSERVABLE_COMMANDS = [
    ["cv-solve", "--g", "0.1"],
    ["pole-order"],
    ["svd-asymptotics"],
    ["truncation-check", "--n", "1"],
    ["weak-limit"],
    ["mc-run", "--g", "0.1", "--trials", "1000", "--seed", "1"],
    ["validate"],
]


@pytest.mark.parametrize("name", ["qubit-linear", "quad-cx", "flat"])
def test_observable_entries_stay_below_2_to_the_256(capsys, tmp_path, name):
    # an overflow RuntimeWarning is an error in this suite; the observables
    # here have largest entry 1, so a scale of 2**255 is the last one loaded
    path = tmp_path / f"{name}.json"
    run(capsys, "registry", "export", name, "--out", str(path))
    data = json.loads(path.read_text())
    refused = "error: ValidationError: [BadValue] at observable: "
    for scale, ok in [(2.0**255, True), (2.0**256, False), (1e300, False)]:
        scaled = dict(data, observable=[[[x * scale for x in z] for z in row]
                                        for row in data["observable"]])
        path.write_text(json.dumps(scaled))
        for argv in OBSERVABLE_COMMANDS:
            code, _, err = run(capsys, *argv, "--file", str(path))
            if ok:
                assert code in (0, 1, 2) and refused not in err
            else:
                assert (code, err) == (
                    1, refused + "observable has an entry of magnitude 2**256 or more\n"
                )


def test_complex_raw_family_file_is_error(capsys, tmp_path):
    path = tmp_path / "complex.json"
    run(capsys, "registry", "export", "eq70", "--out", str(path))
    data = json.loads(path.read_text())
    data["fmatrix"][1]["matrix"][0][1] = [1.0, 1.0]
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "pole-order", "--file", str(path), "--a", "1,1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ValidationError: [NotReal] at fmatrix")
    assert "Traceback" not in err


# ------------------------------------------------------------------- registry


def test_registry_list(capsys):
    code, out, _ = run(capsys, "registry", "list")
    assert code == 0
    for name in ("qubit-linear", "flat", "eq70", "quad-cx"):
        assert name in out


def test_registry_show(capsys):
    code, out, _ = run(capsys, "registry", "show", "eq70")
    assert code == 0
    assert "fmatrix:  2 x 2" in out


def test_registry_show_povm(capsys):
    code, out, _ = run(capsys, "registry", "show", "qubit-linear")
    assert code == 0
    assert out == (
        "name:     qubit-linear\n"
        "summary:  qubit family (I +- g Z)/2: contextual values +-1/g, weak-value limit\n"
        "povm:     2 outcomes, dimension 2, degree 1, g_max 0.9\n"
        "observable eigenvalues: [1, -1]\n"
        "psi_i:    set\n"
        "psi_f:    set\n"
        "notes:    two-outcome qubit family (I +- g Z)/2 with observable Z\n"
    )


def test_registry_show_needs_name(capsys):
    code, _, err = run(capsys, "registry", "show")
    assert code == 2
    assert "needs an instance name" in err


def test_registry_export_round_trips(capsys, tmp_path):
    path = tmp_path / "quad-cx.json"
    code, _, _ = run(capsys, "registry", "export", "quad-cx", "--out", str(path))
    assert code == 0
    spec = load_instance(path)
    assert spec.povm.n_out == 3
    # exporting to stdout gives the same canonical text
    code, out, _ = run(capsys, "registry", "export", "quad-cx")
    assert code == 0
    assert out.strip() == path.read_text().strip()


# ------------------------------------------------------------ README

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """Every `weaklab ...` line of README.md's sh blocks, split as a shell would."""
    blocks = README.read_text().split("```sh\n")[1:]
    lines = [ln for block in blocks for ln in block.split("```")[0].splitlines()]
    return [shlex.split(ln)[1:] for ln in lines if ln.startswith("weaklab ")]


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 11
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv


# ------------------------------------------------------------ one parser

#: each command with and then without the flags a leaky parser would carry over
MIXED_ARGV = [
    ["weak-limit", "--instance", "qubit-linear", "--theta-f", "0.3926990817", "--grid-points", "7"],
    ["weak-limit", "--instance", "qubit-linear"],
    ["cv-solve", "--instance", "quad-cx", "--g", "0.1", "--a", "1,2,3"],
    ["cv-solve", "--instance", "quad-cx", "--g", "0.1"],
    ["conjecture-sweep", "--trials", "3", "--seed", "5"],
    ["conjecture-sweep", "--trials", "3"],
    ["mc-run", "--instance", "qubit-linear", "--g", "0.1", "--trials", "1000", "--seed", "9"],
    ["mc-run", "--instance", "qubit-linear", "--g", "0.1", "--trials", "1000"],
    ["--help"],
    ["validate"],
    ["cv-solve", "--instance", "flat", "--g", "abc"],
]


def test_cached_parser_leaks_no_state(capsys):
    fresh = []
    for argv in MIXED_ARGV:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [rc for rc, _, _ in fresh[-3:]] == [0, 2, 2]
    for _ in range(2):
        for argv, expected in zip(MIXED_ARGV, fresh):
            assert run(capsys, *argv) == expected, argv


def test_second_main_call_builds_no_parser(capsys, count_calls):
    cli.build_parser.cache_clear()
    # argparse names its own class inside its methods, so count the constructor
    built = count_calls(cli.argparse.ArgumentParser, "__init__")
    run(capsys, "registry", "list")
    assert built[0] > 0
    first = built[0]
    run(capsys, "cv-solve", "--instance", "flat", "--g", "0.05")
    assert built[0] == first


@pytest.mark.parametrize(
    "argv", [["registry", "list"], ["cv-solve", "--instance", "flat", "--g", "0.05"]]
)
def test_cold_process_runs_cleanly(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "weaklab.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout


def test_cli_import_loads_only_stdlib_numpy_and_weaklab():
    # what `import weaklab.cli` loads is paid by every cold start, and numpy's
    # lazily loaded subpackages stay unloaded until a command needs one
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import json, sys; before = set(sys.modules); import weaklab.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "weaklab.cli" in loaded
    tops = {name.split(".")[0] for name in loaded}
    assert tops - set(sys.stdlib_module_names) <= {"numpy", "weaklab"}
    packages = {".".join(name.split(".")[:2]) for name in loaded}
    assert packages.isdisjoint({"numpy.random", "numpy.polynomial", "numpy.fft"})


@pytest.mark.parametrize(
    "argv",
    [
        ["conjecture-sweep", "--trials", "20", "--seed", "1"],
        ["weak-limit", "--instance", "qubit-linear", "--theta-f", "0.3926990817"],
        ["svd-asymptotics", "--instance", "eq70"],
        ["svd-asymptotics", "--instance", "quad-cx", "--n", "2"],
        ["proof-claim", "--instance", "eq70"],
        ["pole-order", "--instance", "eq70", "--a", "1,1"],
        ["truncation-check", "--instance", "quad-cx", "--n", "1"],
    ],
)
def test_no_command_loads_numpy_polynomial(argv):
    # every fit repeats numpy's steps itself (weak._polyfit_rows and
    # asymptotics.leading_order_fit), so no command pays the import
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import contextlib, io, json, sys; from weaklab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([code, 'numpy.polynomial' in sys.modules]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, False]


#: numpy's polynomial package or np.polyfit named in code, by attribute or by import
NUMPY_POLYNOMIAL = re.compile(
    r"\b(?:np|numpy)\s*\.\s*(?:polynomial|polyfit)\b"
    r"|\bfrom\s+numpy(?:\s*\.\s*\w+)*\s+import\b[^\n]*\b(?:polynomial|polyfit)\b"
)


def code_tokens(text: str) -> str:
    """The code of a Python source, its tokens joined by spaces, without strings and comments."""
    skip = {"STRING", "COMMENT", "FSTRING_START", "FSTRING_MIDDLE", "FSTRING_END"}
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return " ".join(t.string for t in tokens if tokenize.tok_name[t.type] not in skip)


def test_no_source_uses_numpy_polynomial():
    # every fit repeats numpy's steps itself; a docstring may still name
    # what it repeats, the code may not call or import it
    assert NUMPY_POLYNOMIAL.search(code_tokens("fit = np.polyfit(x, y, 1)\n"))
    assert NUMPY_POLYNOMIAL.search(code_tokens("from numpy import polynomial\n"))
    assert NUMPY_POLYNOMIAL.search(code_tokens("import numpy.polynomial\n"))
    assert not NUMPY_POLYNOMIAL.search(code_tokens('"""numpy.polynomial.polyval"""  # np.polyfit\n'))
    src = Path(__file__).resolve().parents[1] / "src" / "weaklab"
    found = [path.name for path in sorted(src.glob("*.py")) if NUMPY_POLYNOMIAL.search(code_tokens(path.read_text()))]
    assert found == []


def test_closed_stdout_exits_one_without_traceback():
    # the reader closes the pipe after 10 bytes of about 190 kB, more than a
    # pipe buffer holds, so a later write of the command must fail
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["--instance", "qubit-linear", "--theta-f", "0.3", "--grid-points", "4000"]
    # a failed assertion kills the process and closes both pipes, so it leaves
    # no ResourceWarning behind to fail a later test
    with subprocess.Popen(
        [sys.executable, "-m", "weaklab.cli", "weak-limit", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    ) as proc:
        try:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=60) == 1
            assert err == b""
        finally:
            proc.kill()
            proc.wait()
