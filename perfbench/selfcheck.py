"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json names the workloads and metrics this code reports.
2. Each output check rejects a perturbed reference (a flipped verdict, a
   changed exit code, an MC count off by one, a number nudged past
   tolerance) and accepts the unperturbed one.
3. A traced 100-trial sweep at seed 7 makes exactly the calls counted when
   the benchmark was written; a function the tracer fails to rebind in some
   module would lower these counts.

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

import run

#: calls one `conjecture-sweep --trials 100 --seed 7` makes at the seed commit
SEED7_CALLS = {
    "contextual.build_F": 201,
    "linalg.pinv_and_rank": 3913,
    "linalg.psd_sqrt": 5187,
    "numpy.linalg.eigh": 10552,
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_benchmark_json() -> None:
    import tracing

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json lists the workloads run.py runs")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS,
           "BENCHMARK.json end_to_end matches the metrics run.py reports")
    expect({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.LAYER_METRICS,
           "BENCHMARK.json per_layer matches tracing.LAYER_METRICS")


def rejects(op, raw, refs, perturb, what: str) -> None:
    """The op passes against refs, and fails once `perturb` edits its reference."""
    bad = copy.deepcopy(refs)
    perturb(bad[op.ref_key])
    expect(op.check(raw, refs) is None and op.check(raw, bad) is not None, what)


def nudge_first_float(text: str, factor: float) -> str:
    """Scale the first decimal number of at least 1e-3 (well above ATOL)."""
    m = next(m for m in re.finditer(r"\d+\.\d+(?:e[-+]\d+)?", text) if float(m[0]) >= 1e-3)
    return text[: m.start()] + repr(float(m[0]) * factor) + text[m.end():]


def check_output_checks(workdir: Path) -> None:
    import checks
    import workloads

    plan = workloads.prepare("analyses", 0, workdir)
    refs = plan.refs()
    ops = [op for group in plan.groups for op in group]

    def find(key: str, source: str):
        return next(op for op in ops if op.ref_key == key and source in op.argv)

    op = find("proof-claim @eq70 --out", "--file")
    raw = op.run()
    rejects(op, raw, refs, lambda r: r.update(stdout=r["stdout"].replace("=true", "=false")),
            "analyses: flipped counterexample verdict is rejected (--file)")
    rejects(op, raw, refs, lambda r: r.update(out=r["out"].replace("false", "true")),
            "analyses: flipped CSV zero flag is rejected")
    rejects(op, raw, refs,
            lambda r: r.update(stdout=nudge_first_float(r["stdout"], 1 + 10 * checks.RTOL)),
            f"analyses: number nudged by 10 x rtol ({10 * checks.RTOL:g}) is rejected")
    near = copy.deepcopy(refs)
    near[op.ref_key]["stdout"] = nudge_first_float(near[op.ref_key]["stdout"], 1 + checks.RTOL / 10)
    expect(op.check(raw, near) is None, "analyses: number nudged by rtol / 10 is accepted")

    op = find("validate @flat --out", "--instance")
    rejects(op, op.run(), refs, lambda r: r.update(stdout=r["stdout"].replace("PASSED", "FAILED")),
            "analyses: flipped validation verdict is rejected (--instance)")
    op = find("weak-limit --theta-f 0.3926990817 @flat", "--instance")
    rejects(op, op.run(), refs, lambda r: r.update(rc=0),
            "analyses: changed exit code is rejected")

    sweep = workloads.sweep_op(3, workdir)
    sweep_refs = json.loads((workloads.REFS / "sweep.json").read_text())
    rejects(sweep, sweep.run(), sweep_refs,
            lambda r: r.update(out=r["out"].replace("true", "false", 1)),
            "sweep: one flipped CSV pass flag is rejected")

    mc = workloads.mc_op(5, "0.1", workdir)
    mc_refs = json.loads((workloads.REFS / "mc.json").read_text())
    raw = mc.run()

    def count_off_by_one(r):
        line = re.search(r"per-outcome counts: \[(\d+)", r["stdout"])
        r["stdout"] = r["stdout"].replace(line[0], line[0][: -len(line[1])] + str(int(line[1]) + 1))

    rejects(mc, raw, mc_refs, count_off_by_one, "mc: one per-outcome count off by one is rejected")
    expect(checks.check_mc_spread(raw[1]) is None
           and checks.check_mc_spread("empirical  = 1.0 +- 0.001\nanalytic   = 0.996") is not None,
           "mc: an empirical value 4 stderr from the analytic one is rejected")

    plan = workloads.prepare("dilation", 0, workdir)
    dil = plan.groups[0][0]
    g, probs, pointer = dil.run()
    expect(dil.check((g, probs, pointer), {}) is None, "dilation: exact statistics pass")
    expect(dil.check((g, probs + 1e-11, pointer), {}) is not None,
           "dilation: P(j) off by 1e-11 is rejected")
    expect(dil.check((g, probs, pointer + 1e-8), {}) is not None,
           "dilation: pointer expectation off by 1e-8 is rejected")


def check_seed7_counts(workdir: Path) -> None:
    import tracing
    import workloads

    op = workloads.sweep_op(7, workdir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        op.run()
    finally:
        tracer.active = False
        tracer.uninstall()
    calls = Counter(span[0] for span in tracer.spans) + tracer.counts
    for name, want in SEED7_CALLS.items():
        got = calls[name]
        expect(got == want, f"traced sweep at seed 7: {name} = {got} (expected {want})")


def main() -> int:
    run.cap_blas_threads()
    run.import_program()
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT))
    try:
        check_benchmark_json()
        check_output_checks(workdir)
        check_seed7_counts(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} self-check(s) failed" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
