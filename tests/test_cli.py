from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weaklab import asymptotics, cli, contextual, files, linalg
from weaklab.files import load_instance


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
        (["pole-order", "--instance", "eq70", "--a", "1e308,1e308"], "on the pole grid"),
    ],
)
def test_overflowing_contextual_values_are_an_error(capsys, argv, where):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: NoExactCv: contextual values overflow {where}\n"


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


def test_validate_raw_family(capsys):
    code, out, _ = run(capsys, "validate", "--instance", "eq70")
    assert code == 0
    assert "raw 2 x 2 matrix family" in out


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


def test_cv_solve_verdict_follows_the_exactness_tolerance(capsys, monkeypatch):
    argv = ("cv-solve", "--instance", "flat", "--g", "0.05")  # residual sqrt(2)
    _, out, _ = run(capsys, *argv)
    assert "residual = 1.414214e+00  (no exact solution)" in out
    monkeypatch.setattr(contextual, "EXACT_CV_TOL", 2.0)
    _, out, _ = run(capsys, *argv)
    assert "residual = 1.414214e+00  (exact solution)" in out


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


def test_truncation_check_identity_for_linear(capsys):
    code, out, _ = run(
        capsys, "truncation-check", "--instance", "qubit-linear", "--n", "1"
    )
    assert code == 0
    assert "contextual values match:   True" in out


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


# ----------------------------------------------------- asymptotics and claim


def test_svd_asymptotics_eq70(capsys):
    code, out, _ = run(capsys, "svd-asymptotics", "--instance", "eq70")
    assert code == 0
    assert "do NOT commute" in out
    assert "claim holds: false" in out
    assert "proof-claim verdict: counterexample_found=true" in out


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
    monkeypatch.setattr(cli, "svd_curve", recording)
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

    monkeypatch.setattr(cli, "sample_run", refuse)
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


def test_closed_stdout_exits_one_without_traceback():
    # the reader closes the pipe after 10 bytes of about 190 kB, more than a
    # pipe buffer holds, so a later write of the command must fail
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["--instance", "qubit-linear", "--theta-f", "0.3", "--grid-points", "4000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "weaklab.cli", "weak-limit", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
