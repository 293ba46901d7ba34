"""The benchmark's four workloads and their ops.

`prepare(name, seed, workdir)` builds a workload's inputs from the benchmark
seed through weaklab's public API; that is the set-up the benchmark times.
An op's `run()` is the timed part.  `result(raw)` turns what `run()` returned
into a comparable record and `check(raw, refs)` returns None or the reason
the op failed.  Calls go through module attributes (`cli.main`,
`meter.compose_isometry`) so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from weaklab import cli, contextual, files, meter, registry, weak

import checks

REFS = Path(__file__).resolve().parent / "refs"

INSTANCES = ("qubit-linear", "flat", "eq70", "quad-cx")
#: sweep seeds with recorded references; a run visits them in seeded order
SWEEP_SEEDS = tuple(range(24))
SWEEP_TRIALS = 100
#: mc-run seeds with recorded references, each run at every coupling in MC_GS
MC_SEEDS = tuple(range(16))
MC_GS = ("0.05", "0.1", "0.2", "0.4")
MC_TRIALS = 1_000_000
THETA_F = "0.3926990817"
#: (dim, n_out) shapes of the dilation instances, as in the meter acceptance
#: test; every run draws DILATION_PER_SHAPE instances of each, so that runs
#: on different seeds do the same mix of work
DILATION_SHAPES = tuple((d, n) for d in range(2, 5) for n in range(d + 1, 6))
DILATION_PER_SHAPE = 8


def _analyses_commands() -> list[tuple[str, tuple[str, ...], bool]]:
    """(instance, command, writes CSV) for every instance command of the mix."""
    cmds = []
    for name in ("qubit-linear", "flat", "quad-cx"):
        cmds += [
            (name, ("validate",), True),
            (name, ("cv-solve", "--g", "0.05"), True),
            (name, ("pole-order",), False),
            (name, ("truncation-check", "--n", "1", "--truncate-mode", "eq13"), True),
            (name, ("truncation-check", "--n", "1", "--truncate-mode", "prefix"), False),
            (name, ("svd-asymptotics",), True),
        ]
    cmds += [
        ("eq70", ("svd-asymptotics",), True),
        ("eq70", ("proof-claim",), True),
        ("eq70", ("pole-order", "--a", "1,1"), False),
    ]
    cmds += [
        ("qubit-linear", ("weak-limit", "--theta-f", THETA_F), True),
        ("flat", ("weak-limit", "--theta-f", THETA_F), False),  # exit 1: NoExactCv
        # --theta-f is a usage error on a 3-level system; the instance's own
        # final state reaches the analytic failure (exit 1: NoExactCv)
        ("quad-cx", ("weak-limit",), False),
        ("quad-cx", ("proof-claim",), False),  # exit 1: NotLinear
    ]
    return cmds


class CliOp:
    """One `cli.main(argv)` call, checked against a recorded reference."""

    def __init__(self, argv: list[str], ref_key: str, work: int, workdir: Path, out: Path | None = None):
        self.argv = argv
        self.ref_key = ref_key
        self.work = work
        self.workdir = str(workdir)
        self.out = out

    def run(self):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(self.argv)
        return rc, stdout.getvalue(), stderr.getvalue()

    def result(self, raw) -> dict:
        rc, stdout, stderr = raw
        out = self.out.read_text() if self.out is not None else None
        norm = lambda text: text.replace(self.workdir, "<WORK>")
        return {"rc": rc, "stdout": norm(stdout), "stderr": norm(stderr), "out": out}

    def check(self, raw, refs) -> str | None:
        return checks.compare_output(self.result(raw), refs[self.ref_key])


class McOp(CliOp):
    def check(self, raw, refs) -> str | None:
        return super().check(raw, refs) or checks.check_mc_spread(raw[1])


class DilationOp:
    """Dilate one instance and read its statistics back at g = 0.7 g_max."""

    work = 1

    def __init__(self, inst):
        self.inst = inst

    def run(self):
        povm = self.inst.povm
        F = contextual.build_F(povm, self.inst.observable)

        def alpha_fn(j: int):
            return lambda g: float(contextual.pseudoinverse_cv(F, g).alpha[j])

        model = meter.compose_isometry(
            meter.positive_family(povm),
            povm.n_out,
            povm.g_max,
            meter_eigenvalues=[alpha_fn(j) for j in range(povm.n_out)],
        )
        g = 0.7 * povm.g_max
        probs = meter.outcome_probabilities(model, self.inst.psi_i, g)
        return g, probs, meter.meter_expectation(model, self.inst.psi_i, g)

    def check(self, raw, refs) -> str | None:
        return checks.check_dilation(self.inst, *raw)


@dataclass
class Plan:
    """A prepared workload: its ops and how often the run reads the clock."""

    name: str
    unit: str
    seed: int
    #: ops that run back to back; a run visits the groups in a seeded
    #: order, reshuffled on every pass
    groups: list[list]
    #: the clock is read only after whole blocks of ops, so that a run
    #: measures whole cycles of a mix
    block: int
    #: ops in the traced run; fixed so that its call counts repeat exactly
    trace_ops: int
    #: the reference kernel that does this workload's kind of work
    kernel: str = "linalg"

    def ops(self):
        """The seeded, endless op sequence (a fresh iterator on each call)."""
        rng = random.Random(self.seed)
        while True:
            for group in rng.sample(self.groups, len(self.groups)):
                yield from group

    def refs(self) -> dict:
        if self.name == "dilation":
            return {}
        return json.loads((REFS / f"{self.name}.json").read_text())


def sweep_op(s: int, workdir: Path) -> CliOp:
    out = workdir / "sweep.csv"
    argv = ["conjecture-sweep", "--trials", str(SWEEP_TRIALS), "--seed", str(s), "--out", str(out)]
    return CliOp(argv, str(s), SWEEP_TRIALS, workdir, out)


def mc_op(s: int, g: str, workdir: Path) -> McOp:
    argv = ["mc-run", "--instance", "qubit-linear", "--g", g,
            "--trials", str(MC_TRIALS), "--seed", str(s)]
    return McOp(argv, f"{s}@{g}", MC_TRIALS, workdir)


def analyses_ops(workdir: Path) -> list[CliOp]:
    """One cycle of the analyses mix, reading inputs written by prepare()."""
    ops = []
    csv = workdir / "out.csv"
    for name, cmd, writes in _analyses_commands():
        key = " ".join(cmd) + " @" + name + (" --out" if writes else "")
        tail = ["--out", str(csv)] if writes else []
        for source in (["--instance", name], ["--file", str(workdir / f"{name}.json")]):
            ops.append(CliOp([*cmd, *source, *tail], key, 1, workdir, csv if writes else None))
    export = workdir / "export.json"
    for name in INSTANCES:
        ops.append(CliOp(["registry", "export", name, "--out", str(export)],
                         f"registry export {name}", 1, workdir, export))
    return ops


def prepare(name: str, seed: int, workdir: Path) -> Plan:
    if name == "sweep":
        groups = [[sweep_op(s, workdir)] for s in SWEEP_SEEDS]
        return Plan(name, "trials", seed, groups, block=1, trace_ops=2)
    if name == "mc":
        groups = [[mc_op(s, g, workdir) for g in MC_GS] for s in MC_SEEDS]
        return Plan(name, "draws", seed, groups, block=len(MC_GS), trace_ops=len(MC_GS), kernel="stream")
    if name == "analyses":
        for inst in INSTANCES:  # the --file inputs of the mix
            files.save_instance(registry.get_instance(inst), workdir / f"{inst}.json")
        groups = [[op] for op in analyses_ops(workdir)]
        return Plan(name, "commands", seed, groups, block=len(groups), trace_ops=len(groups))
    if name == "dilation":
        rng = np.random.default_rng(seed)
        groups = [
            [DilationOp(weak.generate_linear_commuting_instance(rng, dim, n_out))]
            for dim, n_out in DILATION_SHAPES
            for _ in range(DILATION_PER_SHAPE)
        ]
        return Plan(name, "instances", seed, groups, block=len(groups), trace_ops=len(groups))
    raise ValueError(f"unknown workload {name!r}")

