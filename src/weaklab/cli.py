"""Command-line workbench over the weaklab analysis stack.

Commands map one-to-one onto the library layers: `validate`, `cv-solve`,
`pole-order`, `truncation-check`, `weak-limit`, `svd-asymptotics`,
`proof-claim`, `conjecture-sweep`, `mc-run`, and `registry`.  Instances come
either from the built-in registry (--instance NAME) or from a JSON file
(--file PATH).  Every command is deterministic given its flags; seeds are
always explicit.  `--out` additionally writes the numeric payload as CSV.

Exit codes: 0 on success, 1 on an analytic failure (no exact contextual
values, invalid family, no postselection successes, failing sweep trials),
2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from .asymptotics import (
    default_pole_grid,
    pinv_pole_order,
    proof_claim_check,
    svd_curve,
    truncation_svd_commutator,
)
from .contextual import FMatrix, build_F, pseudoinverse_cv, truncated_cv_check
from .errors import NotLinear, ParseError, WeakLabError
from .files import InstanceSpec, canonical_json, instance_to_dict, load_instance, save_instance
from .montecarlo import McConfig, sample_run
from .povm import check_coupling
from .povm import validate as validate_povm
from .registry import REGISTRY, get_instance
from .weak import LIMIT_GRID_POINTS, TRIAL_N_OUT_MAX, conditioned_average, conjecture_sweep
from .weak import limit_grid, weak_limit


class _UsageError(Exception):
    """Bad flag combination discovered after argparse (exit code 2)."""


def _f(x: float) -> str:
    return f"{float(x):.9g}"


def _vec(v) -> str:
    return "[" + ", ".join(_f(x) for x in np.asarray(v).ravel()) + "]"


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [f"{v:.17g}" if isinstance(v, float) else v for v in row]
            )
    print(f"wrote {path}")


def _registry_instance(name: str) -> InstanceSpec:
    try:
        return get_instance(name)
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None


def _resolve(args) -> InstanceSpec:
    if getattr(args, "instance", None):
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
    norm = np.linalg.norm(v)
    if norm == 0:
        raise _UsageError("--psi-f is the zero vector")
    return v / norm


def _family(spec: InstanceSpec):
    """The matrix polynomial behind an instance: raw, or spectral via build_F."""
    if spec.fmatrix is not None:
        return spec.fmatrix
    if spec.observable is None:
        raise _UsageError(f"instance {spec.name!r} has no observable")
    return build_F(spec.povm, spec.observable).poly


def _fmatrix(spec: InstanceSpec, a_text: str | None) -> FMatrix:
    if spec.fmatrix is not None:
        if a_text is None:
            raise _UsageError(
                f"instance {spec.name!r} is a raw matrix family; pass --a re,re,..."
            )
        a = _parse_floats(a_text, "--a")
        return FMatrix(poly=spec.fmatrix, a_vec=a)
    if spec.observable is None:
        raise _UsageError(f"instance {spec.name!r} has no observable")
    F = build_F(spec.povm, spec.observable)
    if a_text is not None:
        F = FMatrix(poly=F.poly, a_vec=_parse_floats(a_text, "--a"))
    return F


def _require_states(spec: InstanceSpec, need_final: bool = True):
    if spec.povm is None:
        raise _UsageError(f"instance {spec.name!r} is not a POVM")
    if spec.psi_i is None:
        raise _UsageError(f"instance {spec.name!r} has no initial state")
    if need_final and spec.psi_f is None:
        raise _UsageError(
            f"instance {spec.name!r} has no final state; pass --psi-f or --theta-f"
        )


# ------------------------------------------------------------------- commands


def _cmd_validate(args) -> int:
    spec = _resolve(args)
    if spec.povm is None:
        fam = spec.fmatrix
        print(f"instance {spec.name}: raw {fam.shape[0]} x {fam.shape[1]} matrix family")
        print(f"degree {fam.max_degree}, g_max {_f(spec.g_max)}")
        print("no positivity/completeness constraints apply to a raw family")
        return 0
    povm = spec.povm
    report = validate_povm(povm)
    print(
        f"instance {spec.name}: {povm.n_out} outcomes on dimension {povm.dim}, "
        f"degree {povm.max_degree}, g_max {_f(povm.g_max)}"
    )
    print(f"hermiticity residual:    {report.hermiticity_residual:.3e}")
    print(f"completeness residuals:  {_vec(report.completeness_residuals)}")
    print(f"min eigenvalue on grid:  {report.min_eigenvalues.min():.3e}")
    for msg in report.failures:
        print(f"FAIL: {msg}")
    print("validation " + ("PASSED" if report.passed else "FAILED"))
    if args.out:
        header = ["g"] + [f"min_eig_{j}" for j in range(povm.n_out)]
        rows = [
            [float(g)] + [float(x) for x in report.min_eigenvalues[:, i]]
            for i, g in enumerate(report.grid)
        ]
        _write_csv(args.out, header, rows)
    return 0 if report.passed else 1


def _cmd_cv_solve(args) -> int:
    spec = _resolve(args)
    F = _fmatrix(spec, args.a)
    check_coupling(args.g, spec.g_max)
    sol = pseudoinverse_cv(F, args.g)
    exact = sol.residual <= 1e-9
    print(f"instance {spec.name}: F(g) is {F.dim} x {F.n_out}, g = {_f(args.g)}")
    print(f"a     = {_vec(F.a_vec)}")
    print(f"alpha = {_vec(sol.alpha)}")
    print(f"residual = {sol.residual:.6e}  ({'exact' if exact else 'no exact'} solution)")
    print(f"rank used = {sol.rank_used}")
    if args.out:
        header = ["g", "residual", "rank"] + [f"alpha_{j}" for j in range(F.n_out)]
        _write_csv(
            args.out,
            header,
            [[float(args.g), float(sol.residual), sol.rank_used] + [float(x) for x in sol.alpha]],
        )
    return 0


def _cmd_pole_order(args) -> int:
    spec = _resolve(args)
    F = _fmatrix(spec, args.a)
    grid = default_pole_grid()
    est = pinv_pole_order(F.poly, F.a_vec, grid)
    print(f"instance {spec.name}: a = {_vec(F.a_vec)}")
    if est.alpha_zero:
        print("alpha(g) vanishes on the whole grid: no pole")
    print(f"pole order   = {_f(est.exponent)}   (||alpha(g)|| ~ g^-order)")
    print(f"coefficient  = {_f(est.coefficient)}")
    print(f"fit r^2      = {est.fit_r2:.9f}" + ("" if est.reliable else "  [UNRELIABLE]"))
    if args.out:
        rows = []
        for g in np.sort(grid):
            alpha = pseudoinverse_cv(F, float(g)).alpha
            rows.append([float(g), float(np.abs(alpha).max())])
        _write_csv(args.out, ["g", "alpha_sup"], rows)
    return 0


def _cmd_truncation_check(args) -> int:
    spec = _resolve(args)
    if spec.povm is None or spec.observable is None:
        raise _UsageError(f"instance {spec.name!r} needs a POVM and an observable")
    g_max = spec.povm.g_max
    grid = np.geomspace(g_max / 50.0, g_max, 12)
    rep = truncated_cv_check(
        spec.povm, spec.observable, args.n, grid, mode=args.truncate_mode
    )
    print(f"instance {spec.name}: truncation order n = {rep.n}, mode = {rep.mode}")
    print(f"{'g':>12}  {'full residual':>14}  {'trunc residual':>14}")
    for i, g in enumerate(rep.g_grid):
        print(
            f"{_f(g):>12}  {rep.full_residuals[i]:>14.6e}  {rep.truncated_residuals[i]:>14.6e}"
        )
    print(f"full family solvable:      {rep.full_solvable}")
    print(f"truncated family solvable: {rep.truncated_solvable}")
    print(f"contextual values match:   {rep.alphas_match}")
    if args.out:
        rows = [
            [float(g), float(rep.full_residuals[i]), float(rep.truncated_residuals[i])]
            for i, g in enumerate(rep.g_grid)
        ]
        _write_csv(args.out, ["g", "full_residual", "truncated_residual"], rows)
    return 0


def _cmd_weak_limit(args) -> int:
    spec = _resolve(args)
    if spec.povm is None or spec.observable is None:
        raise _UsageError(f"instance {spec.name!r} needs a POVM and an observable")
    _require_states(spec, need_final=False)
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

    g_top = min(0.1, spec.povm.g_max)
    if args.grid_min is None and args.grid_max is None and args.grid_points == LIMIT_GRID_POINTS:
        grid = limit_grid(g_top)
    else:
        g_hi = args.grid_max if args.grid_max is not None else g_top
        g_lo = args.grid_min if args.grid_min is not None else g_hi * 2.0**-12
        if not (0 < g_lo < g_hi):
            raise _UsageError("need 0 < --grid-min < --grid-max")
        grid = np.geomspace(g_lo, g_hi, args.grid_points)

    rep = weak_limit(spec.povm, spec.observable, spec.psi_i, psi_f, grid)
    print(f"instance {spec.name}: weak limit along {len(grid)} couplings")
    print(f"{'g':>14}  {'conditioned avg':>16}  {'success prob':>13}")
    order = np.argsort(rep.g_grid)
    for i in order:
        print(
            f"{_f(rep.g_grid[i]):>14}  {rep.conditioned_averages[i]:>16.9f}  "
            f"{rep.success_probabilities[i]:>13.9f}"
        )
    print(f"quadratic fit (c0 + c1 g + c2 g^2): {_vec(rep.fit_coefficients)}")
    print(f"extrapolated limit: {rep.extrapolated_limit:.9f}")
    print(f"traditional value:  {rep.traditional_value:.9f}")
    print(f"discrepancy:        {rep.discrepancy:.3e}")
    if args.out:
        rows = [
            [
                float(rep.g_grid[i]),
                float(rep.conditioned_averages[i]),
                float(rep.success_probabilities[i]),
            ]
            for i in order
        ]
        _write_csv(args.out, ["g", "conditioned_average", "success_probability"], rows)
    return 0


def _cmd_svd_asymptotics(args) -> int:
    spec = _resolve(args)
    fam = _family(spec)
    grid = np.sort(default_pole_grid())
    curve = svd_curve(fam, grid)
    k = curve.singulars.shape[1]
    rows, cols = fam.shape

    print(f"instance {spec.name}: {rows} x {cols} family, degree {fam.max_degree}")
    header = f"{'g':>14}  " + "  ".join(f"{f'sigma_{i + 1}':>13}" for i in range(k))
    print(header)
    for i, g in enumerate(curve.g_grid):
        sig = "  ".join(f"{s:>13.6e}" for s in curve.singulars[i])
        print(f"{_f(g):>14}  {sig}")

    dets = None
    if rows == cols:
        dets = np.array([abs(np.linalg.det(fam(float(g)))) for g in curve.g_grid])
        prods = np.prod(curve.singulars, axis=1)
        rel = np.max(np.abs(dets - prods) / np.maximum(prods, 1e-300))
        print(f"det consistency: max rel deviation of |det F| from prod(sigma) = {rel:.3e}")

    probes = [np.ones(rows), (-1.0) ** np.arange(rows)]
    for a in probes:
        est = pinv_pole_order(fam, a, grid)
        tag = "" if est.reliable else "  [UNRELIABLE]"
        print(
            f"pole order for a = {_vec(a)}: {_f(est.exponent)} "
            f"(coefficient {_f(est.coefficient)}, r^2 {est.fit_r2:.6f}){tag}"
        )

    tsc = truncation_svd_commutator(fam, args.n)
    print(
        f"order-{args.n} truncation vs singular-value expansion: "
        + ("commute" if tsc.commute else "do NOT commute")
    )
    for j, series in enumerate(tsc.right_series):
        print(f"  sigma_{j + 1} series through g^{args.n}: {_vec(series)}")

    try:
        claim = proof_claim_check(fam)
    except NotLinear:
        print(f"proof-claim audit skipped: family degree {fam.max_degree} > 1")
    else:
        for j, est in enumerate(claim.orders):
            if est is None:
                print(f"  sigma_{j + 1}: identically zero trajectory")
            else:
                print(f"  sigma_{j + 1} leading order {_f(est.exponent)} (r^2 {est.fit_r2:.6f})")
        print(f"claim holds: {str(claim.claim_holds).lower()}")
        print(f"proof-claim verdict: counterexample_found={str(claim.counterexample_found).lower()}")

    if args.out:
        header_row = ["g"] + [f"sigma_{i + 1}" for i in range(k)]
        if dets is not None:
            header_row.append("abs_det")
        out_rows = []
        for i, g in enumerate(curve.g_grid):
            row = [float(g)] + [float(s) for s in curve.singulars[i]]
            if dets is not None:
                row.append(float(dets[i]))
            out_rows.append(row)
        _write_csv(args.out, header_row, out_rows)
    return 0


def _cmd_proof_claim(args) -> int:
    spec = _resolve(args)
    fam = _family(spec)
    rep = proof_claim_check(fam)
    print(f"instance {spec.name}: auditing the first-order singular value claim")
    if rep.zero_trajectories:
        print(f"identically-zero trajectories: {rep.zero_trajectories}")
    for j, est in enumerate(rep.orders):
        if est is None:
            continue
        tag = "" if est.reliable else "  [UNRELIABLE]"
        print(
            f"sigma_{j + 1}: leading order {_f(est.exponent)}, "
            f"coefficient {_f(est.coefficient)}, r^2 {est.fit_r2:.6f}{tag}"
        )
    print(f"claim holds: {str(rep.claim_holds).lower()}")
    print(f"counterexample_found={str(rep.counterexample_found).lower()}")
    print(f"note: {rep.caveat}")
    if args.out:
        rows = []
        for j, est in enumerate(rep.orders):
            zero = est is None
            rows.append(
                [
                    j,
                    0.0 if zero else float(est.exponent),
                    0.0 if zero else float(est.coefficient),
                    1.0 if zero else float(est.fit_r2),
                    str(zero).lower(),
                ]
            )
        _write_csv(args.out, ["trajectory", "exponent", "coefficient", "fit_r2", "zero"], rows)
    return 0


def _cmd_conjecture_sweep(args) -> int:
    if args.n_out is None and args.dim is not None and args.dim > TRIAL_N_OUT_MAX:
        raise _UsageError(f"--dim above {TRIAL_N_OUT_MAX} needs --n-out")
    records = conjecture_sweep(
        args.seed, args.trials, dim=args.dim, n_out=args.n_out, tol=args.tol
    )
    failures = [r for r in records if not r.passed]
    verbose = args.trials <= 20
    for r in records:
        if verbose or not r.passed:
            status = "pass" if r.passed else "FAIL"
            print(
                f"trial {r.trial:>3}: dim {r.dim}, n_out {r.n_out}, "
                f"g_min {r.g_min:.3e}, discrepancy {r.discrepancy:.3e}  {status}"
            )
    out_dir = os.path.dirname(os.path.abspath(args.out)) if args.out else os.getcwd()
    for r in failures:
        inst = r.instance
        fail_spec = InstanceSpec(
            name=f"conjecture-fail-s{args.seed}-t{r.trial}",
            povm=inst.povm,
            observable=inst.observable,
            psi_i=inst.psi_i,
            psi_f=inst.psi_f,
            notes=(
                f"failing conjecture trial: seed {args.seed}, trial {r.trial}, "
                f"discrepancy {r.discrepancy:.6e} at tol {args.tol:g}"
            ),
        )
        path = os.path.join(out_dir, fail_spec.name + ".json")
        save_instance(fail_spec, path)
        print(f"serialized failing instance to {path}")
    worst = max(r.discrepancy for r in records)
    print(
        f"{len(records) - len(failures)}/{len(records)} trials passed "
        f"(tol {args.tol:g}, max discrepancy {worst:.3e})"
    )
    if args.out:
        rows = [
            [
                r.seed[0],
                r.trial,
                r.dim,
                r.n_out,
                float(r.g_min),
                float(r.discrepancy),
                str(r.passed).lower(),
            ]
            for r in records
        ]
        _write_csv(
            args.out,
            ["seed", "trial", "dim", "n_out", "g_min", "discrepancy", "pass"],
            rows,
        )
    return 1 if failures else 0


def _cmd_mc_run(args) -> int:
    spec = _resolve(args)
    if spec.observable is None:
        raise _UsageError(f"instance {spec.name!r} has no observable")
    _require_states(spec)
    check_coupling(args.g, spec.povm.g_max)
    F = build_F(spec.povm, spec.observable)
    sol = pseudoinverse_cv(F, args.g)
    res = sample_run(
        spec.povm,
        sol.alpha,
        spec.psi_i,
        spec.psi_f,
        McConfig(trials=args.trials, seed=args.seed, g=args.g),
    )
    analytic, success_prob = conditioned_average(
        spec.povm, sol.alpha, spec.psi_i, spec.psi_f, args.g
    )
    dev = abs(res.empirical_value - analytic)
    sig = dev / res.stderr if res.stderr > 0 else float("inf")
    print(f"instance {spec.name}: g = {_f(args.g)}, {args.trials} trials, seed {args.seed}")
    print(f"empirical  = {res.empirical_value:.9f} +- {res.stderr:.9f}")
    print(f"analytic   = {analytic:.9f}  (success probability {success_prob:.6f})")
    print(f"deviation  = {dev:.3e}  ({sig:.2f} standard errors)")
    print(f"successes  = {res.successes}/{res.trials}")
    print(f"per-outcome draws:  {[int(x) for x in res.per_outcome_draws]}")
    print(f"per-outcome counts: {[int(x) for x in res.per_outcome_counts]}")
    if args.out:
        _write_csv(
            args.out,
            ["g", "trials", "seed", "empirical_value", "stderr", "successes", "analytic_value"],
            [
                [
                    float(args.g),
                    args.trials,
                    args.seed,
                    float(res.empirical_value),
                    float(res.stderr),
                    res.successes,
                    float(analytic),
                ]
            ],
        )
    return 0


def _cmd_registry(args) -> int:
    if args.action == "list":
        for entry in REGISTRY.values():
            print(f"{entry.name:<14} {entry.summary}")
        return 0
    if not args.name:
        raise _UsageError(f"registry {args.action} needs an instance name")
    spec = _registry_instance(args.name)
    if args.action == "show":
        print(f"name:     {spec.name}")
        print(f"summary:  {REGISTRY[spec.name].summary}")
        if spec.povm is not None:
            print(
                f"povm:     {spec.povm.n_out} outcomes, dimension {spec.povm.dim}, "
                f"degree {spec.povm.max_degree}, g_max {_f(spec.povm.g_max)}"
            )
        else:
            print(
                f"fmatrix:  {spec.fmatrix.shape[0]} x {spec.fmatrix.shape[1]}, "
                f"degree {spec.fmatrix.max_degree}, g_max {_f(spec.g_max)}"
            )
        if spec.observable is not None:
            print(f"observable eigenvalues: {_vec(np.linalg.eigvalsh(spec.observable)[::-1])}")
        print(f"psi_i:    {'set' if spec.psi_i is not None else 'absent'}")
        print(f"psi_f:    {'set' if spec.psi_f is not None else 'absent'}")
        if spec.notes:
            print(f"notes:    {spec.notes}")
        return 0
    # export
    text = canonical_json(instance_to_dict(spec))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


# -------------------------------------------------------------------- parser


def _at_least(low: float, kind: type = int):
    """argparse type: a finite number of the given kind no smaller than low."""

    def parse(text: str):
        value = kind(text)
        if not math.isfinite(value):
            raise ValueError(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--grid-min", type=float, help="smallest coupling")
    p.add_argument("--grid-max", type=float, help="largest coupling")
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
        "--n", type=_at_least(0), default=1, help="truncation order for the commutator check"
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
        "--tol", type=_at_least(0.0, float), default=1e-3, help="pass tolerance on the discrepancy"
    )
    p.add_argument("--out", help="write the sweep CSV here")
    p.set_defaults(func=_cmd_conjecture_sweep)

    p = sub.add_parser("mc-run", parents=[inst], help="sample the conditioned average")
    p.add_argument("--g", type=float, required=True, help="coupling strength")
    p.add_argument("--trials", type=_at_least(1), default=100_000)
    p.add_argument("--seed", type=_at_least(0), default=0)
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
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except WeakLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
