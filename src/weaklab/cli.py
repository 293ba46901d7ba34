"""Command-line workbench over the weaklab analysis stack.

Commands map one-to-one onto the library layers: `validate`, `cv-solve`,
`pole-order`, `truncation-check`, `weak-limit`, `svd-asymptotics`,
`proof-claim`, `conjecture-sweep`, `mc-run`, and `registry`.  Each analysis
is one library call: `mc-run` is montecarlo.mc_run, `svd-asymptotics` is
asymptotics.svd_asymptotics and `truncation-check` is
contextual.truncated_cv_check on its own grid.  A command only parses its
flags, raises usage errors and formats what that call returns.  Instances
come either from the built-in registry (--instance NAME) or from a JSON file
(--file PATH).  Every command is deterministic given its flags; seeds are
always explicit.  `--out` additionally writes the numeric payload as CSV.
A command returns its text lines, its table (CSV header and rows) and its
exit code; only `main` resolves the instance, prints and writes `--out`, and
it refuses `--out` for a command that has no table there.

Exit codes: 0 on success, 1 on an analytic failure (no exact contextual
values, invalid family, no postselection successes, failing sweep trials),
2 on a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import os
import sys
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .asymptotics import pinv_pole_order, proof_claim_check, svd_asymptotics
from .contextual import FMatrix, build_F, solve_coupling, truncated_cv_check
from .errors import ParseError, WeakLabError
from .files import InstanceSpec, canonical_json, instance_to_dict, load_instance, save_instance
from .linalg import pow2_scale
from .montecarlo import McConfig, mc_run
from .povm import validate as validate_povm
from .registry import REGISTRY, get_instance
from .weak import CONJECTURE_TOL, LIMIT_FIT_POINTS, LIMIT_FIT_WIDTH, LIMIT_GRID_POINTS, TRIAL_N_OUT_MAX
from .weak import conjecture_sweep, limit_grid, weak_limit


class _UsageError(Exception):
    """Bad flag combination discovered after argparse (exit code 2)."""


def _f(x: float) -> str:
    return f"{float(x):.9g}"


def _vec(v) -> str:
    return "[" + ", ".join(_f(x) for x in np.asarray(v).ravel()) + "]"


@contextlib.contextmanager
def _writing(path: str):
    """An --out path that cannot be written is a usage error, as an unreadable --file is."""
    try:
        yield
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from None


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write rows (iterables of values) with every float, numpy's included, as %.17g."""
    with _writing(path), open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def _registry_instance(name: str) -> InstanceSpec:
    try:
        return get_instance(name)
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None


def _resolve(args) -> InstanceSpec:
    if args.instance:
        return _registry_instance(args.instance)
    try:
        return load_instance(args.file)
    except ParseError as exc:
        if isinstance(exc.__cause__, OSError):
            raise _UsageError(f"cannot read {args.file}: {exc.__cause__}") from None
        raise


def _parse_floats(text: str, flag: str) -> np.ndarray:
    try:
        vals = np.array([float(tok) for tok in text.split(",") if tok.strip()])
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not np.all(np.isfinite(vals)):
        raise _UsageError(f"{flag} expects finite numbers, got {text!r}")
    return vals


def _parse_state(text: str, dim: int) -> np.ndarray:
    """A state flag is either dim reals or 2*dim interleaved re,im values."""
    vals = _parse_floats(text, "--psi-f")
    if len(vals) == dim:
        v = vals.astype(complex)
    elif len(vals) == 2 * dim:
        v = vals[0::2] + 1j * vals[1::2]
    else:
        raise _UsageError(
            f"--psi-f needs {dim} reals or {2 * dim} interleaved re,im values"
        )
    if not v.any():
        raise _UsageError("--psi-f is the zero vector")
    # divide the real view by an exact power of two (so no norm over- or underflows), then the
    # norm: complex / real multiplies by the reciprocal (inf/nan if subnormal, or an ulp off)
    re_im = v.view(float)
    re_im /= pow2_scale(re_im, axis=-1)
    re_im /= np.linalg.norm(v)
    return v


def _fmatrix(spec: InstanceSpec, a_text: str | None) -> FMatrix:
    """F and its target a: a raw family with --a, or build_F of the POVM and observable."""
    if spec.fmatrix is not None:
        if a_text is None:
            raise _UsageError(
                f"instance {spec.name!r} is a raw matrix family; pass --a re,re,..."
            )
        poly = spec.fmatrix
    else:
        if spec.observable is None:
            raise _UsageError(f"instance {spec.name!r} has no observable")
        F = build_F(spec.povm, spec.observable)
        if a_text is None:
            return F
        poly = F.poly
    a = _parse_floats(a_text, "--a")
    if len(a) != poly.shape[0]:
        raise _UsageError(f"--a needs {poly.shape[0]} values, one per row of F, got {len(a)}")
    return FMatrix(poly=poly, a_vec=a, g_max=spec.g_max)


def _family(spec: InstanceSpec):
    """The matrix polynomial behind an instance: raw, or spectral via build_F."""
    return spec.fmatrix if spec.fmatrix is not None else _fmatrix(spec, None).poly


# ------------------------------------------------------------------- commands


class _Output(NamedTuple):
    """A command's result: its text lines, its --out table (header None: none) and exit code."""

    lines: Iterable[str]
    header: list[str] | None = None
    rows: Iterable = ()
    code: int = 0


def _cmd_validate(args, spec: InstanceSpec) -> _Output:
    if spec.povm is None:
        fam = spec.fmatrix
        return _Output([
            f"instance {spec.name}: raw {fam.shape[0]} x {fam.shape[1]} matrix family",
            f"degree {fam.max_degree}, g_max {_f(spec.g_max)}",
            "no positivity/completeness constraints apply to a raw family",
        ])
    povm = spec.povm
    report = spec.report if spec.report is not None else validate_povm(povm)
    lines = [
        f"instance {spec.name}: {povm.n_out} outcomes on dimension {povm.dim}, "
        f"degree {povm.max_degree}, g_max {_f(povm.g_max)}",
        f"hermiticity residual:    {report.hermiticity_residual:.3e}",
        f"completeness residuals:  {_vec(report.completeness_residuals)}",
        f"min eigenvalue on grid:  {report.min_eigenvalues.min():.3e}",
        *(f"FAIL: {msg}" for msg in report.failures),
        "validation " + ("PASSED" if report.passed else "FAILED"),
    ]
    header = ["g"] + [f"min_eig_{j}" for j in range(povm.n_out)]
    rows = ([g, *report.min_eigenvalues[:, i]] for i, g in enumerate(report.grid))
    return _Output(lines, header, rows, 0 if report.passed else 1)


def _cmd_cv_solve(args, spec: InstanceSpec) -> _Output:
    F = _fmatrix(spec, args.a)
    sol = solve_coupling(F, args.g)
    lines = [
        f"instance {spec.name}: F(g) is {F.dim} x {F.n_out}, g = {_f(args.g)}",
        f"a     = {_vec(F.a_vec)}",
        f"alpha = {_vec(sol.alpha[0])}",
        f"residual = {sol.residuals[0]:.6e}  ({'exact' if sol.exact else 'no exact'} solution)",
        f"rank used = {sol.ranks[0]}",
    ]
    header = ["g", "residual", "rank"] + [f"alpha_{j}" for j in range(F.n_out)]
    return _Output(lines, header, [[args.g, sol.residuals[0], sol.ranks[0], *sol.alpha[0]]])


def _cmd_pole_order(args, spec: InstanceSpec) -> _Output:
    F = _fmatrix(spec, args.a)
    est = pinv_pole_order(F.poly, F.a_vec, limit_grid(spec.g_max))
    lines = [f"instance {spec.name}: a = {_vec(F.a_vec)}"]
    if est.alpha_zero:
        lines.append("alpha(g) vanishes on the whole grid: no pole")
    lines += [
        f"pole order   = {_f(est.exponent)}   (||alpha(g)|| ~ g^-order)",
        f"coefficient  = {_f(est.coefficient)}",
        f"fit r^2      = {est.fit_r2:.9f}" + ("" if est.reliable else "  [UNRELIABLE]"),
    ]
    order = np.argsort(est.g_grid)
    g, ranks = est.g_grid[order], est.ranks[order]
    if est.rank_changes:
        steps = [0, *(np.flatnonzero(np.diff(ranks)) + 1)]
        lines.append("rank of F(g) changes along the grid: " + ", ".join(
            f"rank {ranks[i]} from g = {_f(g[i])}" for i in steps))
    return _Output(lines, ["g", "alpha_sup"], zip(g, est.alpha_sup[order]))


def _cmd_truncation_check(args, spec: InstanceSpec) -> _Output:
    if spec.povm is None or spec.observable is None:
        raise _UsageError(f"instance {spec.name!r} needs a POVM and an observable")
    rep = truncated_cv_check(spec.povm, spec.observable, args.n, mode=args.truncate_mode)
    rows = list(zip(rep.g_grid, rep.full_residuals, rep.truncated_residuals))
    lines = [
        f"instance {spec.name}: truncation order n = {rep.n}, mode = {rep.mode}",
        f"{'g':>12}  {'full residual':>14}  {'trunc residual':>14}",
        *(f"{_f(g):>12}  {full:>14.6e}  {trunc:>14.6e}" for g, full, trunc in rows),
        f"full family solvable:      {rep.full_solvable}",
        f"truncated family solvable: {rep.truncated_solvable}",
        f"contextual values match:   {rep.alphas_match}",
    ]
    return _Output(lines, ["g", "full_residual", "truncated_residual"], rows)


def _cmd_weak_limit(args, spec: InstanceSpec) -> _Output:
    if spec.povm is None or spec.observable is None:
        raise _UsageError(f"instance {spec.name!r} needs a POVM and an observable")
    if spec.psi_i is None:
        raise _UsageError(f"instance {spec.name!r} has no initial state")
    if args.theta_f is not None:
        if spec.dim != 2:
            raise _UsageError("--theta-f only makes sense for dimension 2")
        psi_f = np.array([np.cos(args.theta_f), np.sin(args.theta_f)], dtype=complex)
    elif args.psi_f is not None:
        psi_f = _parse_state(args.psi_f, spec.dim)
    elif spec.psi_f is not None:
        psi_f = spec.psi_f
    else:
        raise _UsageError("no final state: pass --theta-f or --psi-f")

    if args.grid_min is None and args.grid_max is None and args.grid_points == LIMIT_GRID_POINTS:
        grid = None  # weak_limit's own ladder
    else:
        g_hi = args.grid_max if args.grid_max is not None else limit_grid(spec.g_max)[0]
        g_lo = args.grid_min if args.grid_min is not None else g_hi * 2.0 ** (1 - LIMIT_GRID_POINTS)
        if not (0 < g_lo < g_hi):
            raise _UsageError("need 0 < --grid-min < --grid-max")
        try:
            grid = np.geomspace(g_lo, g_hi, args.grid_points)
        except MemoryError:
            raise _UsageError(
                f"--grid-points {args.grid_points} needs more memory than is available"
            ) from None
        window = np.sort(grid)[:LIMIT_FIT_POINTS]
        if window[-1] - window[0] < LIMIT_FIT_WIDTH * window[-1]:
            raise _UsageError(
                f"--grid-min and --grid-max are too close: the fit's {window.size} smallest "
                f"couplings must span a relative width of at least {LIMIT_FIT_WIDTH:g}"
            )

    rep = weak_limit(spec.povm, spec.observable, spec.psi_i, psi_f, grid)
    order = np.argsort(rep.g_grid)
    rows = list(zip(
        rep.g_grid[order], rep.conditioned_averages[order], rep.success_probabilities[order]
    ))
    lines = [
        f"instance {spec.name}: weak limit along {len(rep.g_grid)} couplings",
        f"{'g':>14}  {'conditioned avg':>16}  {'success prob':>13}",
        *(f"{_f(g):>14}  {avg:>16.9f}  {prob:>13.9f}" for g, avg, prob in rows),
        f"quadratic fit (c0 + c1 g + c2 g^2): {_vec(rep.fit_coefficients)}",
        f"extrapolated limit: {rep.extrapolated_limit:.9f}",
        f"traditional value:  {rep.traditional_value:.9f}",
        f"discrepancy:        {rep.discrepancy:.3e}",
    ]
    return _Output(lines, ["g", "conditioned_average", "success_probability"], rows)


def _cmd_svd_asymptotics(args, spec: InstanceSpec) -> _Output:
    fam = _family(spec)
    rep = svd_asymptotics(fam, spec.g_max, args.n)
    rows, cols = fam.shape

    header = ["g"] + [f"sigma_{i + 1}" for i in range(rep.singular_values.shape[1])]
    table = np.column_stack([rep.g_grid, rep.singular_values])
    lines = [
        f"instance {spec.name}: {rows} x {cols} family, degree {fam.max_degree}",
        f"{'g':>14}  " + "  ".join(f"{name:>13}" for name in header[1:]),
        *(f"{_f(g):>14}  " + "  ".join(f"{s:>13.6e}" for s in sig) for g, *sig in table),
    ]
    if rep.abs_det is not None:
        lines.append("det consistency: " + (
            f"max rel deviation of |det F| from prod(sigma) = {rep.det_deviation:.3e}"
            if rep.det_nonfinite_g is None
            else f"|det F| or prod(sigma) is not finite at g = {rep.det_nonfinite_g:.9g}"
        ))
        header.append("abs_det")
        table = np.column_stack([table, rep.abs_det])

    for a, est in zip(rep.probes, rep.poles):
        tag = "" if est.reliable else "  [UNRELIABLE]"
        lines.append(
            f"pole order for a = {_vec(a)}: {_f(est.exponent)} "
            f"(coefficient {_f(est.coefficient)}, r^2 {est.fit_r2:.6f}){tag}"
        )

    tsc = rep.truncation
    lines.append(
        f"order-{args.n} truncation vs singular-value expansion: "
        + ("commute" if tsc.commute else "do NOT commute")
        + ("" if tsc.reliable else "  [UNRELIABLE]")
    )
    lines += [
        f"  sigma_{j + 1} series through g^{args.n}: {_vec(series)}"
        for j, series in enumerate(tsc.right_series)
    ]

    claim = rep.claim
    if claim is None:
        lines.append(f"proof-claim audit skipped: family degree {fam.max_degree} > 1")
    else:
        lines += [
            f"  sigma_{j + 1}: identically zero trajectory" if est is None
            else f"  sigma_{j + 1} leading order {_f(est.exponent)} (r^2 {est.fit_r2:.6f})"
            for j, est in enumerate(claim.orders)
        ]
        lines += [
            f"claim holds: {str(claim.claim_holds).lower()}",
            f"proof-claim verdict: counterexample_found={str(claim.counterexample_found).lower()}",
        ]
    return _Output(lines, header, table)


def _cmd_proof_claim(args, spec: InstanceSpec) -> _Output:
    rep = proof_claim_check(_family(spec), spec.g_max)
    lines = [f"instance {spec.name}: auditing the first-order singular value claim"]
    if rep.zero_trajectories:
        lines.append(f"identically-zero trajectories: {rep.zero_trajectories}")
    lines += [
        f"sigma_{j + 1}: leading order {_f(est.exponent)}, "
        f"coefficient {_f(est.coefficient)}, r^2 {est.fit_r2:.6f}"
        + ("" if est.reliable else "  [UNRELIABLE]")
        for j, est in enumerate(rep.orders) if est is not None
    ]
    lines += [
        f"claim holds: {str(rep.claim_holds).lower()}",
        f"counterexample_found={str(rep.counterexample_found).lower()}",
        f"note: {rep.caveat}",
    ]
    rows = (
        [j, 0.0, 0.0, 1.0, "true"] if est is None
        else [j, est.exponent, est.coefficient, est.fit_r2, "false"]
        for j, est in enumerate(rep.orders)
    )
    return _Output(lines, ["trajectory", "exponent", "coefficient", "fit_r2", "zero"], rows)


def _cmd_conjecture_sweep(args, spec: None) -> _Output:
    if args.n_out is None and args.dim is not None and args.dim > TRIAL_N_OUT_MAX:
        raise _UsageError(f"--dim above {TRIAL_N_OUT_MAX} needs --n-out")
    records = conjecture_sweep(
        args.seed, args.trials, dim=args.dim, n_out=args.n_out, tol=args.tol
    )
    failures = [r for r in records if not r.passed]

    def lines():
        # a generator: each failing instance is saved as main prints its line, so a
        # failed save still leaves every line before it on stdout
        for r in records:
            if args.trials <= 20 or not r.passed:
                yield (
                    f"trial {r.trial:>3}: dim {r.dim}, n_out {r.n_out}, g_min {r.g_min:.3e}, "
                    f"discrepancy {r.discrepancy:.3e}  {'pass' if r.passed else 'FAIL'}"
                )
        out_dir = os.path.dirname(os.path.abspath(args.out)) if args.out else os.getcwd()
        for r in failures:
            path = os.path.join(out_dir, r.instance.name + ".json")
            with _writing(path):
                save_instance(r.instance, path)
            yield f"serialized failing instance to {path}"
        yield (
            f"{len(records) - len(failures)}/{len(records)} trials passed "
            f"(tol {args.tol:g}, max discrepancy {max(r.discrepancy for r in records):.3e})"
        )

    header = ["seed", "trial", "dim", "n_out", "g_min", "discrepancy", "pass"]
    rows = (
        [r.seed[0], r.trial, r.dim, r.n_out, r.g_min, r.discrepancy, str(r.passed).lower()]
        for r in records
    )
    return _Output(lines(), header, rows, 1 if failures else 0)


def _cmd_mc_run(args, spec: InstanceSpec) -> _Output:
    for part, missing in [(spec.observable, "has no observable"), (spec.povm, "is not a POVM"),
                          (spec.psi_i, "has no initial state"), (spec.psi_f, "has no final state")]:
        if part is None:
            raise _UsageError(f"instance {spec.name!r} {missing}")
    config = McConfig(trials=args.trials, seed=args.seed, g=args.g)
    try:
        res = mc_run(spec.povm, spec.observable, spec.psi_i, spec.psi_f, config)
    except MemoryError:
        raise _UsageError(f"--trials {args.trials} needs more memory than is available") from None
    dev = abs(res.empirical_value - res.analytic_value)
    sig = dev / res.stderr if res.stderr > 0 else float("inf")
    lines = [
        f"instance {spec.name}: g = {_f(args.g)}, {args.trials} trials, seed {args.seed}",
        f"empirical  = {res.empirical_value:.9f} +- {res.stderr:.9f}",
        f"analytic   = {res.analytic_value:.9f}  (success probability {res.success_probability:.6f})",
        f"deviation  = {dev:.3e}  ({sig:.2f} standard errors)",
        f"successes  = {res.successes}/{res.trials}",
        f"per-outcome draws:  {[int(x) for x in res.per_outcome_draws]}",
        f"per-outcome counts: {[int(x) for x in res.per_outcome_counts]}",
    ]
    header = ["g", "trials", "seed", "empirical_value", "stderr", "successes", "analytic_value"]
    values = [res.empirical_value, res.stderr, res.successes, res.analytic_value]
    return _Output(lines, header, [[args.g, args.trials, args.seed, *values]])


def _cmd_registry(args, spec: None) -> _Output:
    if args.action == "list":
        return _Output([f"{entry.name:<14} {entry.summary}" for entry in REGISTRY.values()])
    if not args.name:
        raise _UsageError(f"registry {args.action} needs an instance name")
    spec = _registry_instance(args.name)
    if args.action == "export":
        text = canonical_json(instance_to_dict(spec))
        if not args.out:
            return _Output([text])
        with _writing(args.out), open(args.out, "w") as fh:
            fh.write(text)
        return _Output([f"wrote {args.out}"])
    lines = [f"name:     {spec.name}", f"summary:  {REGISTRY[spec.name].summary}"]
    if spec.povm is not None:
        lines.append(
            f"povm:     {spec.povm.n_out} outcomes, dimension {spec.povm.dim}, "
            f"degree {spec.povm.max_degree}, g_max {_f(spec.povm.g_max)}"
        )
    else:
        lines.append(
            f"fmatrix:  {spec.fmatrix.shape[0]} x {spec.fmatrix.shape[1]}, "
            f"degree {spec.fmatrix.max_degree}, g_max {_f(spec.g_max)}"
        )
    if spec.observable is not None:
        lines.append(f"observable eigenvalues: {_vec(np.linalg.eigvalsh(spec.observable)[::-1])}")
    lines += [
        f"psi_i:    {'set' if spec.psi_i is not None else 'absent'}",
        f"psi_f:    {'set' if spec.psi_f is not None else 'absent'}",
    ]
    if spec.notes:
        lines.append(f"notes:    {spec.notes}")
    return _Output(lines)


# -------------------------------------------------------------------- parser


def _at_least(low: float, kind: type = int, below: float = math.inf):
    """argparse type: a finite number of the given kind in [low, below)."""

    def parse(text: str):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise ValueError(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value >= below:
            raise argparse.ArgumentTypeError(f"must be below {below}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later main call."""
    parser = argparse.ArgumentParser(
        prog="weaklab",
        description="numerical workbench for contextual values of parameterized measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inst = argparse.ArgumentParser(add_help=False)
    group = inst.add_mutually_exclusive_group(required=True)
    group.add_argument("--instance", help="registry instance name")
    group.add_argument("--file", help="instance JSON file")
    inst.add_argument("--out", help="also write the numeric payload as CSV")

    p = sub.add_parser("validate", parents=[inst], help="check POVM invariants")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("cv-solve", parents=[inst], help="pseudoinverse contextual values")
    p.add_argument("--g", type=float, required=True, help="coupling strength")
    p.add_argument("--a", help="override target eigenvalues, comma-separated")
    p.set_defaults(func=_cmd_cv_solve)

    p = sub.add_parser("pole-order", parents=[inst], help="fit the alpha blow-up order")
    p.add_argument("--a", help="target eigenvalues, comma-separated")
    p.set_defaults(func=_cmd_pole_order)

    p = sub.add_parser(
        "truncation-check", parents=[inst], help="do contextual values survive truncation?"
    )
    p.add_argument("--n", type=_at_least(1), required=True, help="truncation order")
    p.add_argument(
        "--truncate-mode",
        choices=["eq13", "prefix"],
        default="eq13",
        help="keep orders {0, n} (eq13) or all orders <= n (prefix)",
    )
    p.set_defaults(func=_cmd_truncation_check)

    p = sub.add_parser("weak-limit", parents=[inst], help="extrapolate the conditioned average")
    p.add_argument(
        "--theta-f", type=_at_least(-math.inf, float), help="final qubit state angle (cos t, sin t)"
    )
    p.add_argument("--psi-f", help="final state, comma-separated components")
    p.add_argument("--grid-min", type=_at_least(-math.inf, float), help="smallest coupling")
    p.add_argument("--grid-max", type=_at_least(-math.inf, float), help="largest coupling")
    p.add_argument(
        "--grid-points",
        type=_at_least(3),
        default=LIMIT_GRID_POINTS,
        help="grid size (default %(default)s)",
    )
    p.set_defaults(func=_cmd_weak_limit)

    p = sub.add_parser(
        "svd-asymptotics", parents=[inst], help="singular value curves, poles, claim audit"
    )
    p.add_argument(
        "--n",
        type=_at_least(0, below=LIMIT_GRID_POINTS - 3),  # the degree n + 3 fit must not interpolate
        default=1,
        help="truncation order for the commutator check",
    )
    p.set_defaults(func=_cmd_svd_asymptotics)

    p = sub.add_parser("proof-claim", parents=[inst], help="audit the first-order claim")
    p.set_defaults(func=_cmd_proof_claim)

    p = sub.add_parser("conjecture-sweep", help="random linear-family convergence trials")
    p.add_argument("--trials", type=_at_least(1), default=100)
    p.add_argument("--seed", type=_at_least(0), default=0, help="master seed")
    p.add_argument("--dim", type=_at_least(2), help="fix the system dimension")
    p.add_argument("--n-out", type=_at_least(2), help="fix the number of outcomes")
    p.add_argument(
        "--tol",
        type=_at_least(0.0, float),
        default=CONJECTURE_TOL,
        help="pass tolerance on the discrepancy",
    )
    p.add_argument("--out", help="write the sweep CSV here")
    p.set_defaults(func=_cmd_conjecture_sweep)

    p = sub.add_parser("mc-run", parents=[inst], help="sample the conditioned average")
    p.add_argument("--g", type=float, required=True, help="coupling strength")
    # numpy caps an array at 2**63 bytes, so 8-byte uniforms cap the trials at 2**60
    p.add_argument("--trials", type=_at_least(1, below=2**60), default=100_000)
    p.add_argument(
        "--seed", type=_at_least(0, below=2**128), default=0, help="Philox key, below 2**128"
    )
    p.set_defaults(func=_cmd_mc_run)

    p = sub.add_parser("registry", help="list, inspect, or export built-in instances")
    p.add_argument("action", choices=["list", "show", "export"])
    p.add_argument("name", nargs="?", help="instance name (show/export)")
    p.add_argument("--out", help="write exported JSON here instead of stdout")
    p.set_defaults(func=_cmd_registry)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its own message
        return int(exc.code or 0)
    try:
        spec = _resolve(args) if "file" in args else None  # --instance/--file
        out = args.func(args, spec)
        if spec is not None and args.out and out.header is None:
            raise _UsageError(f"{args.command} writes no --out table for instance {spec.name!r}")
        for line in out.lines:
            print(line)
        if out.header is not None and args.out:
            _write_csv(args.out, out.header, out.rows)
            print(f"wrote {args.out}")
        return out.code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except WeakLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    """Console entry: main's exit code; a reader that closes stdout early gets exit 1, quietly."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # as the Python docs advise: point stdout at devnull so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
