"""Output checks that decide whether a benchmark op failed.

CLI output is compared with references recorded from the seed commit.  The
text with every number blanked out must match exactly, so verdict lines,
pass flags, tags such as `[UNRELIABLE]` and exit messages cannot change.
Integers must match exactly (dimensions, trial numbers, Monte Carlo counts).
Other numbers must satisfy |x - ref| <= RTOL * |ref| + ATOL.  ATOL covers
round-off-sized values such as residuals near 1e-16 and sweep discrepancies
near 1e-9, which are differences of O(1) numbers.
"""

from __future__ import annotations

import re

import numpy as np

RTOL = 1e-6
ATOL = 1e-10
#: dilation checks, as in the meter acceptance test
PROB_ATOL = 1e-12
POINTER_ATOL = 1e-9
#: Monte Carlo: the empirical value must lie within this many standard errors
MC_SIGMAS = 3.0

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
_INTEGER = re.compile(r"[-+]?\d+")


def compare_text(got: str, ref: str, what: str) -> str | None:
    """None when `got` matches `ref` under the rules above, else the reason."""
    got_nums, ref_nums = _NUMBER.findall(got), _NUMBER.findall(ref)
    got_text, ref_text = _NUMBER.sub("#", got), _NUMBER.sub("#", ref)
    if got_text != ref_text or len(got_nums) != len(ref_nums):
        for g_line, r_line in zip(got_text.splitlines(), ref_text.splitlines()):
            if g_line != r_line:
                return f"{what}: line {g_line!r} differs from reference {r_line!r}"
        return f"{what}: {len(got_text.splitlines())} lines, reference has {len(ref_text.splitlines())}"
    for g, r in zip(got_nums, ref_nums):
        if _INTEGER.fullmatch(g) and _INTEGER.fullmatch(r):
            if int(g) != int(r):
                return f"{what}: integer {g} differs from reference {r}"
        elif not abs(float(g) - float(r)) <= RTOL * abs(float(r)) + ATOL:
            return f"{what}: {g} differs from reference {r} beyond rtol {RTOL:g} + atol {ATOL:g}"
    return None


def compare_output(got: dict, ref: dict) -> str | None:
    """Compare a normalized CLI result {rc, stdout, stderr, out} with its reference."""
    if got["rc"] != ref["rc"]:
        return f"exit code {got['rc']}, reference {ref['rc']}"
    for key in ("stdout", "stderr", "out"):
        if (got[key] is None) != (ref[key] is None):
            return f"{key}: present in only one of output and reference"
        if got[key] is not None:
            reason = compare_text(got[key], ref[key], key)
            if reason:
                return reason
    return None


def check_mc_spread(stdout: str) -> str | None:
    """The printed empirical value lies within MC_SIGMAS stderr of the analytic one."""
    emp = re.search(r"empirical\s*=\s*(\S+) \+- (\S+)", stdout)
    ana = re.search(r"analytic\s*=\s*(\S+)", stdout)
    if not (emp and ana):
        return "mc-run printed no empirical/analytic values"
    value, stderr, analytic = float(emp[1]), float(emp[2]), float(ana[1])
    if not abs(value - analytic) <= MC_SIGMAS * stderr:
        return f"empirical {value} is more than {MC_SIGMAS:g} stderr ({stderr}) from analytic {analytic}"
    return None


def check_dilation(inst, g: float, probs, pointer: float) -> str | None:
    """P(j) = <psi_i|E_j(g)|psi_i> and the pointer average = <psi_i|A|psi_i>."""
    psi = inst.psi_i
    direct = np.array([np.real(np.vdot(psi, e(g) @ psi)) for e in inst.povm.elements])
    probs = np.asarray(probs)
    if probs.shape != direct.shape or not np.all(np.abs(probs - direct) <= PROB_ATOL):
        return f"outcome probabilities {probs} differ from {direct} beyond {PROB_ATOL:g}"
    expected = float(np.real(np.vdot(psi, inst.observable @ psi)))
    if not abs(pointer - expected) <= POINTER_ATOL:
        return f"pointer expectation {pointer} differs from {expected} beyond {POINTER_ATOL:g}"
    return None
