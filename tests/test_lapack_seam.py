"""linalg's one seam to numpy's private LAPACK gufuncs, and the public forms it falls back to.

`linalg._bind_lapack` binds `_svd` and `_lstsq` at import: each is numpy's
private gufunc where the module has it and it answers a fixed 2 x 2 bit for
bit as the public function does, and that public function otherwise.  The
stub cases hand the binder a module with a gufunc missing, changed or
failing; the fixture `public_lapack` binds the public forms, under which
every golden command, every golden dilation op and the sweep's lone-trial
oracle must give their recorded bytes; and a fresh interpreter whose numpy
hides or changes the gufuncs, or has no `_umath_linalg` at all, must run
`cv-solve` and `weak-limit` to their recorded output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import weaklab
from weaklab import linalg
from weaklab import weak as wk

import test_cli_golden as golden
from test_cli_golden import inst, recorded  # noqa: F401  (fixtures)
import test_dilation_golden as dilation
from oracles import oracle_conjecture_trial
from test_weak import record_fields

REAL = np.linalg._umath_linalg


@pytest.fixture
def public_lapack(monkeypatch):
    """linalg's SVD and least squares bound to np.linalg.svd and np.linalg.lstsq."""
    svd, lstsq = linalg._bind_lapack(None)
    monkeypatch.setattr(linalg, "_svd", svd)
    monkeypatch.setattr(linalg, "_lstsq", lstsq)


class Stub:
    """numpy's _umath_linalg with svd_s and lstsq each kept, missing, changed or failing; counts their calls."""

    def __init__(self, svd_s="kept", lstsq="kept"):
        self.calls = Counter()
        for name, state in (("svd_s", svd_s), ("lstsq", lstsq)):
            if state != "missing":
                setattr(self, name, self._gufunc(name, state))

    def _gufunc(self, name, state):
        real = getattr(REAL, name)

        def call(*args, **kwargs):
            self.calls[name] += 1
            if state == "failing":  # as a gufunc whose signature changed
                raise TypeError("No loop matching the specified signature")
            out = real(*args, **kwargs)
            return (out[0] * (1 + 2**-52), *out[1:]) if state == "changed" else out  # one ulp off

        return call


def bits(out):
    """dtype, shape and bytes of each array a form returned."""
    return [(v.dtype, v.shape, v.tobytes()) for v in out]


def broadcast_rows(rng):
    """Least-squares stacks as _lstsq_rows takes them: one row, a stack of a, a shared a, rank 1,
    a singular value that rcond = 1e-12 drops and numpy's default would keep, and no rows."""
    a = rng.standard_normal((3, 5, 3))
    b = rng.standard_normal((2, 3, 5))
    return [(a[0], b[0, 0]), (a, b), (a[0], b), (a[:, :, :1] @ a[:, :1, :], b[0]),
            (np.eye(5, 3) * [1.0, 1e-14, 1.0], b[0]), (a[:0], b[0, :0])]


@pytest.mark.parametrize(
    "svd_s, lstsq",
    [("kept", "kept"), ("missing", "kept"), ("kept", "missing"), ("changed", "kept"),
     ("kept", "changed"), ("failing", "failing"), ("missing", "missing")],
)
def test_the_binder_takes_a_gufunc_only_where_it_answers_as_numpy_does(svd_s, lstsq):
    stub = Stub(svd_s, lstsq)
    bound_svd, bound_lstsq = linalg._bind_lapack(stub)
    rng = np.random.default_rng(42)
    stack = rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5))
    checked = stub.calls.copy()
    assert all(bits(bound_svd(M)) == bits(linalg._svd(M)) for M in (stack, stack[0].real))
    with np.errstate(all="ignore"):
        assert all(bits(bound_lstsq(a, b[..., None], 1e-12)) == bits(linalg._lstsq(a, b[..., None], 1e-12))
                   for a, b in broadcast_rows(rng))
    # the private gufunc serves the solves (after its one known-answer call) only where it is kept
    assert (stub.calls["svd_s"] > checked["svd_s"]) == (svd_s == "kept")
    assert (stub.calls["lstsq"] > checked["lstsq"]) == (lstsq == "kept")


def test_this_numpy_binds_the_private_gufuncs(count_calls):
    stub = Stub()
    assert [f.__code__ for f in linalg._bind_lapack(stub)] == [linalg._svd.__code__, linalg._lstsq.__code__]
    assert [f.__code__ for f in linalg._bind_lapack(None)] != [linalg._svd.__code__, linalg._lstsq.__code__]
    wrappers = count_calls(np.linalg, "svd")
    linalg.pinv_and_rank(np.eye(2))
    assert wrappers[0] == 0


@pytest.mark.parametrize("forms", ["bound", "public"])
def test_a_failed_solve_raises_numpys_own_error(forms, request):
    if forms == "public":
        request.getfixturevalue("public_lapack")
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    for ours, numpys in ((lambda: linalg.pinv_and_rank(bad), lambda: np.linalg.svd(bad)),
                         (lambda: linalg._lstsq_rows(bad, bad[1], 1e-15), lambda: np.linalg.lstsq(bad, bad[1], 1e-15))):
        with pytest.raises(np.linalg.LinAlgError) as want:
            numpys()
        with pytest.raises(np.linalg.LinAlgError) as got:
            ours()
        assert str(got.value) == str(want.value)  # "SVD did not converge", "... in Linear Least Squares"
    assert linalg.pinv_and_rank(np.zeros((0, 3, 2)))[0].shape == (0, 2, 3)


@pytest.mark.parametrize("argv", golden.golden_commands(), ids=golden.key)
def test_public_forms_print_every_golden_command(argv, recorded, inst, tmp_path, monkeypatch, public_lapack):
    monkeypatch.setenv("COLUMNS", golden.COLUMNS)
    assert golden.run_command(argv, tmp_path, inst) == recorded[golden.key(argv)]


@pytest.mark.parametrize("seed", dilation.SEEDS)
def test_public_forms_give_every_golden_dilation_op(seed, tmp_path, public_lapack):
    assert dilation.replay(seed, tmp_path) == json.loads(dilation.GOLDEN.read_text())[str(seed)]


def test_public_forms_give_the_lone_trial_oracles_records(public_lapack):
    for seed, trials, shape in ((0, 100, {}), (4, 30, {"dim": 3, "n_out": 4}), (2, wk._SWEEP_BLOCK + 1, {})):
        oracle = [record_fields(oracle_conjecture_trial(seed, t, **shape)) for t in range(trials)]
        assert [record_fields(r) for r in wk.conjecture_sweep(seed, trials, **shape)] == oracle


#: hides or changes numpy.linalg._umath_linalg before weaklab is imported, then runs argv
BROKEN_NUMPY = """
import contextlib, io, json, sys, types
import numpy.linalg

case, real = sys.argv[1], numpy.linalg._umath_linalg
if case == "no module":
    del numpy.linalg._umath_linalg
    sys.modules["numpy.linalg._umath_linalg"] = None
else:  # numpy's own svd and lstsq keep the real module; weaklab finds this one
    stub = types.ModuleType(real.__name__)
    vars(stub).update(vars(real))
    for name in ("svd_s", "lstsq"):
        if case == "missing":
            delattr(stub, name)
        else:  # one ulp off in the first output
            gufunc = getattr(real, name)
            setattr(stub, name, lambda *a, f=gufunc, **k: (f(*a, **k)[0] * (1 + 2**-52), *f(*a, **k)[1:]))
    numpy.linalg._umath_linalg = stub

from weaklab import cli, linalg

runs = {}
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    runs[" ".join(argv)] = [rc, out.getvalue(), err.getvalue()]
print(json.dumps({"bound": [linalg._svd.__name__, linalg._lstsq.__name__], "runs": runs}))
"""


@pytest.mark.parametrize("case", ["missing", "changed", "no module"])
def test_a_numpy_without_the_gufuncs_prints_the_recorded_output(case, recorded):
    keys = ["cv-solve --g 0.1 --instance qubit-linear", "weak-limit --instance qubit-linear"]
    env = {**os.environ, "PYTHONPATH": str(Path(weaklab.__file__).parents[1])}
    argvs = json.dumps([key.split() for key in keys])
    done = subprocess.run([sys.executable, "-W", "error", "-c", BROKEN_NUMPY, case, argvs],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    result = json.loads(done.stdout)
    assert result["bound"] == ["public_svd", "public_lstsq"]
    for key in keys:
        want = recorded[key]
        assert result["runs"][key] == [0, want["stdout"], ""] and want["rc"] == 0 and want["stderr"] == ""
