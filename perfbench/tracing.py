"""Spans and counters around weaklab's public functions, set up from outside.

The benchmark traces the program without touching it: `Tracer.install()`
rebinds each listed function in *every* weaklab module namespace that holds
it.  The modules import each other with `from .x import y`, so patching only
the defining module would miss most calls.  numpy's `linalg.eigh`,
`linalg.eigvalsh` and `linalg.svd` are counted the same way, on the
`numpy.linalg` module that weaklab reaches them through.

Spans are kept in memory as `[name, start, end, parent, op]` and written out
when the run ends.  They are named `<module>.<function>`.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

import numpy

#: weaklab functions that get a span, by module.  Every function a metric
#: names is here, plus the boundaries whose time should not count as their
#: caller's self time (`exact_cv_exists`, `conjecture_trial`, `save_instance`,
#: `instance_to_dict`).
SPANS = {
    "linalg": ("common_eigenbasis", "pinv_and_rank", "psd_sqrt"),
    "povm": ("validate", "measurement_operators"),
    "contextual": ("build_F", "pseudoinverse_cv", "exact_cv_exists", "truncated_cv_check"),
    "asymptotics": (
        "svd_curve",
        "pinv_pole_order",
        "truncation_svd_commutator",
        "proof_claim_check",
    ),
    "weak": (
        "generate_linear_commuting_instance",
        "weak_limit",
        "conditioned_average",
        "conjecture_trial",
    ),
    "montecarlo": ("sample_run", "joint_probabilities"),
    "meter": ("compose_isometry", "outcome_probabilities", "meter_expectation"),
    "files": ("load_instance", "canonical_json", "save_instance", "instance_to_dict"),
    "registry": ("get_instance",),
    "cli": ("main",),
}

#: numpy.linalg functions whose calls are counted (no span)
NUMPY_COUNTED = ("eigh", "eigvalsh", "svd")

#: Every per-layer metric the traced run reports: name -> (unit, better).
LAYER_METRICS = {
    "linalg.common_eigenbasis.calls": ("count", "lower"),
    "linalg.common_eigenbasis.self_s": ("s", "lower"),
    "linalg.pinv_and_rank.calls": ("count", "lower"),
    "linalg.pinv_and_rank.self_s": ("s", "lower"),
    "linalg.psd_sqrt.calls": ("count", "lower"),
    "linalg.psd_sqrt.self_s": ("s", "lower"),
    "linalg.np_eigh_calls": ("count", "lower"),
    "linalg.np_svd_calls": ("count", "lower"),
    "povm.validate.calls": ("count", "lower"),
    "povm.validate.self_s": ("s", "lower"),
    "povm.measurement_operators.calls": ("count", "lower"),
    "povm.measurement_operators.self_s": ("s", "lower"),
    "contextual.build_F.calls": ("count", "lower"),
    "contextual.build_F.self_s": ("s", "lower"),
    "contextual.pseudoinverse_cv.calls": ("count", "lower"),
    "contextual.pseudoinverse_cv.self_s": ("s", "lower"),
    "contextual.truncated_cv_check.self_s": ("s", "lower"),
    "asymptotics.svd_curve.calls": ("count", "lower"),
    "asymptotics.svd_curve.self_s": ("s", "lower"),
    "asymptotics.pinv_pole_order.self_s": ("s", "lower"),
    "asymptotics.truncation_svd_commutator.self_s": ("s", "lower"),
    "asymptotics.proof_claim_check.self_s": ("s", "lower"),
    "weak.generate_linear_commuting_instance.self_s": ("s", "lower"),
    "weak.generate.accept_ratio": ("ratio", "higher"),
    "weak.weak_limit.self_s": ("s", "lower"),
    "weak.conditioned_average.calls": ("count", "lower"),
    "weak.conditioned_average.self_s": ("s", "lower"),
    "montecarlo.sample_run.self_s": ("s", "lower"),
    "montecarlo.joint_probabilities.self_s": ("s", "lower"),
    "montecarlo.accept_ratio": ("ratio", "higher"),
    "meter.compose_isometry.self_s": ("s", "lower"),
    "meter.outcome_probabilities.self_s": ("s", "lower"),
    "meter.meter_expectation.self_s": ("s", "lower"),
    "files.load_instance.calls": ("count", "lower"),
    "files.load_instance.self_s": ("s", "lower"),
    "files.canonical_json.self_s": ("s", "lower"),
    "files.bytes_written": ("bytes", "lower"),
    "registry.get_instance.calls": ("count", "lower"),
    "registry.get_instance.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "cli.nonzero_exits": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}


class Tracer:
    """Records spans and counts while installed and active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._mc_successes = 0
        self._mc_trials = 0
        self._json_bytes = 0

    # ------------------------------------------------------------ rebinding

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "weaklab" or name.startswith("weaklab."))
        ]
        for mod, names in SPANS.items():
            home = sys.modules[f"weaklab.{mod}"]
            for fn in names:
                original = getattr(home, fn)
                wrapper = self._span(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, attr, original))
                            setattr(m, attr, wrapper)
        for fn in NUMPY_COUNTED:
            original = getattr(numpy.linalg, fn)
            self._undo.append((numpy.linalg, fn, original))
            setattr(numpy.linalg, fn, self._counter(f"numpy.linalg.{fn}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            self._observe(name, result)
            return result

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "montecarlo.sample_run":
            self._mc_successes += result.successes
            self._mc_trials += result.trials
        elif name == "files.canonical_json":
            self._json_bytes += len(result.encode())

    # -------------------------------------------------------------- results

    def metrics(self, stdout_bytes: int, nonzero_exits: int, overhead_ratio: float) -> dict:
        """Every LAYER_METRICS value from the spans and counts recorded so far."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_s[i]

        # Candidate draws that reached exact_cv_exists inside the generator.
        in_generate = 0
        for name, _, _, parent, _ in self.spans:
            if name != "contextual.exact_cv_exists":
                continue
            while parent >= 0 and self.spans[parent][0] != "weak.generate_linear_commuting_instance":
                parent = self.spans[parent][3]
            in_generate += parent >= 0

        values = {
            "linalg.np_eigh_calls": self.counts["numpy.linalg.eigh"] + self.counts["numpy.linalg.eigvalsh"],
            "linalg.np_svd_calls": self.counts["numpy.linalg.svd"],
            "weak.generate.accept_ratio": _ratio(
                calls["weak.generate_linear_commuting_instance"], in_generate
            ),
            "montecarlo.accept_ratio": _ratio(self._mc_successes, self._mc_trials),
            "files.bytes_written": self._json_bytes,
            "cli.stdout_bytes": stdout_bytes,
            "cli.nonzero_exits": nonzero_exits,
            "trace.overhead_ratio": overhead_ratio,
        }
        for metric in LAYER_METRICS:
            if metric.endswith(".calls"):
                values[metric] = calls[metric[: -len(".calls")]]
            elif metric.endswith(".self_s"):
                values[metric] = self_s[metric[: -len(".self_s")]]
        return {
            m: {"value": values[m], "unit": unit} for m, (unit, _) in LAYER_METRICS.items()
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
