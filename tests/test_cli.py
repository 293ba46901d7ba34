from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from weaklab import cli
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
    ],
)
def test_coupling_outside_validity_range_fails(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "error: OutOfValidityRange" in err
    assert out == ""


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
