"""weaklab benchmark: one workload, one closed loop, one client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all            # table of every workload

Run from any directory; the program is imported from `src/` beside this
directory, never from an installed copy, and the run fails without it.

`--trace 0` measures the end-to-end metrics with tracing off.  Their times
are reference times: the CPU time of the benchmark's process, which leaves
out the time a shared host withholds the CPU, rescaled by the reference
kernel run around each block (see reference.py).  The record beside them
gives the same statistics over plain CPU time and over wall-clock time.
`--trace 1` runs the workload's first `trace_ops` ops untraced until `--seconds` have
passed, then once more under the tracer, and reports the per-layer metrics
of that traced pass together with the tracing overhead.  Set-up time is
the CPU time of fresh interpreters (`--setup-probe`), SETUP_PROBES per run.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record (run
environment, sample counts, the percentile behind `op_ref_tail_ms`, failures)
is printed before it and written to `.perfbench/` with the spans of a traced
run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("sweep", "mc", "analyses", "dilation")
SETUP_PROBES = 5
#: the tail percentile, lowered where fewer than TAIL_BEYOND ops lie beyond it
TAIL_PERCENTILE = 90
TAIL_BEYOND = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {
    "setup_s": "s",
    "work_per_ref_s": "1/s",
    "op_ref_p50_ms": "ms",
    "op_ref_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def cap_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use, before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, n))
        except ValueError:
            current = n
        os.environ[var] = str(max(1, min(current, n)))


def import_program() -> None:
    """Put the checkout's sources first on the path, or stop the run."""
    package = SRC / "weaklab"
    if not (package / "cli.py").is_file():
        sys.exit(f"perfbench: no weaklab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import weaklab.cli

    if Path(weaklab.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported weaklab from {weaklab.cli.__file__}, not {package}")


def environment(seed: int) -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": commit,
        "seed": seed,
    }


class Tally:
    """Per-op times, work and failures of one phase; traces ops when given a tracer."""

    def __init__(self, refs: dict, tracer=None):
        self.refs = refs
        self.tracer = tracer
        #: wall-clock and CPU seconds of each op
        self.times: list[float] = []
        self.cpu: list[float] = []
        self.work = 0
        #: (first op, end op, work, ref seconds per CPU second) of each
        #: block run_for ran
        self.blocks: list[tuple[int, int, int, float]] = []
        self.failed = 0
        self.errors: list[str] = []
        self.stdout_bytes = 0
        self.nonzero_exits = 0

    def run(self, op) -> None:
        if self.tracer:
            self.tracer.op = len(self.times)
            self.tracer.active = True
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            raw = op.run()
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            raw, reason = None, f"raised {type(exc).__name__}: {exc}"
        else:
            reason = None
        self.times.append(time.perf_counter() - t0)
        self.cpu.append(time.process_time() - c0)
        if self.tracer:
            self.tracer.active = False
        argv = getattr(op, "argv", None)  # set on CLI ops, whose raw is (rc, stdout, stderr)
        if raw is not None:
            if argv is not None:
                self.stdout_bytes += len(raw[1].encode())
                self.nonzero_exits += raw[0] != 0
            try:
                reason = op.check(raw, self.refs)
            except Exception as exc:  # a check that cannot run fails the op
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{' '.join(argv) if argv else type(op).__name__}: {reason}")
        else:
            self.work += op.work


def run_for(tally: Tally, ops, block: int, seconds: float, kernel: str) -> Tally:
    """Run whole blocks of ops until `seconds` have passed (at least one
    block), with the reference kernel before the first and after each."""
    import reference

    end = time.perf_counter() + seconds
    before = reference.measure(kernel)
    while True:
        n, work = len(tally.times), tally.work
        for op in itertools.islice(ops, block):
            tally.run(op)
        after = reference.measure(kernel)
        scale = reference.REF_CPU_S / ((before + after) / 2)
        tally.blocks.append((n, len(tally.cpu), tally.work - work, scale))
        before = after
        if time.perf_counter() >= end:
            return tally


def block_rates(tally: Tally, ref: bool) -> list[float]:
    """Work per reference second (or per CPU second) of each block."""
    return [work / (sum(tally.cpu[a:b]) * (scale if ref else 1.0))
            for a, b, work, scale in tally.blocks]


def measure_setup(workload: str, seed: int) -> list[float]:
    """CPU seconds a fresh interpreter spends until it could run the first
    op.  Not rescaled: the kernels did not track the speed of set-up, which is
    mostly imports, and rescaling made its spread wider."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150,
        )
        if probe.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{probe.stderr}")
        samples.append(float(probe.stdout.split()[-1]))
    return samples


def p50(times: list[float]) -> float:
    """The nearest-rank median, so that it never exceeds the tail."""
    return sorted(times)[math.ceil(len(times) / 2) - 1]


def tail(times: list[float]) -> tuple[float, float]:
    """The nearest-rank TAIL_PERCENTILE, or the highest percentile with
    TAIL_BEYOND ops beyond it where that is lower (but not below the
    median), or the slowest op when there are too few; returns (value,
    percentile)."""
    times = sorted(times)
    n = len(times)
    if n > TAIL_BEYOND:
        rank = max(min(math.ceil(TAIL_PERCENTILE * n / 100), n - TAIL_BEYOND), math.ceil(n / 2))
    else:
        rank = n
    return times[rank - 1], 100.0 * rank / n


def end_to_end(tally: Tally, setup: list[float]) -> tuple[dict, dict]:
    n = len(tally.times)
    ref = [c * scale for a, b, _, scale in tally.blocks for c in tally.cpu[a:b]]
    ref_tail, percentile = tail(ref)
    values = {
        "setup_s": statistics.median(setup),
        "work_per_ref_s": statistics.median(block_rates(tally, ref=True)),
        "op_ref_p50_ms": p50(ref) * 1e3,
        "op_ref_tail_ms": ref_tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"setup_s": len(setup), "work_per_ref_s": len(tally.blocks),
               "op_ref_p50_ms": n, "op_ref_tail_ms": n, "peak_rss_mb": 1}
    scales = [scale for *_, scale in tally.blocks]
    detail = {
        "op_tail_percentile": percentile,
        "samples": samples,
        "setup_samples_s": setup,
        "fail_ratio": tally.failed / n,
        # reference seconds per CPU second: how fast the machine ran
        "ref_scale": {"min": min(scales), "median": statistics.median(scales), "max": max(scales)},
        # the same statistics over plain CPU time
        "cpu": {
            "work_per_s": statistics.median(block_rates(tally, ref=False)),
            "op_p50_ms": p50(tally.cpu) * 1e3,
            "op_tail_ms": tail(tally.cpu)[0] * 1e3,
        },
        # the same statistics over wall-clock op times, which include steal
        "wall": {
            "work_per_s": tally.work / sum(tally.times),
            "op_p50_ms": p50(tally.times) * 1e3,
            "op_tail_ms": tail(tally.times)[0] * 1e3,
            "cpu_over_wall": sum(tally.cpu) / sum(tally.times),
        },
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}, detail


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import_program()
    setup = [] if trace else measure_setup(workload, seed)
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT))
    try:
        plan = workloads.prepare(workload, seed, workdir)
        refs = plan.refs()
        record = {"workload": workload, "work_unit": plan.unit, "kernel": plan.kernel,
                  "trace": int(trace), "environment": environment(seed)}
        if not trace:
            tally = run_for(Tally(refs), plan.ops(), plan.block, seconds, plan.kernel)
            metrics, detail = end_to_end(tally, setup)
            phases = [tally]
        else:
            fixed = list(itertools.islice(plan.ops(), plan.trace_ops))
            plain = run_for(Tally(refs), itertools.cycle(fixed), len(fixed), seconds, plan.kernel)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                # one block, between kernel runs that the tracer does not see
                traced = run_for(Tally(refs, tracer), iter(fixed), len(fixed), 0, plan.kernel)
            finally:
                tracer.uninstall()
            traced_rate = block_rates(traced, ref=True)[0]
            # The median pass leaves out the first, cold pass over the ops.
            untraced_rate = statistics.median(block_rates(plain, ref=True))
            metrics = tracer.metrics(
                stdout_bytes=traced.stdout_bytes,
                nonzero_exits=traced.nonzero_exits,
                overhead_ratio=traced_rate / untraced_rate if untraced_rate else 0.0,
            )
            tracer.write_spans(OUT / f"spans-{workload}-s{seed}.json")
            detail = {"traced_ops": len(fixed), "untraced_ops": len(plain.times),
                      "traced_work_per_ref_s": traced_rate, "untraced_work_per_ref_s": untraced_rate}
            phases = [plain, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(t.times) for t in phases)
    failed = sum(t.failed for t in phases)
    detail["errors"] = [e for t in phases for e in t.errors][:5]
    record.update(detail=detail, correct=failed == 0, attempted=attempted, failed=failed, metrics=metrics)
    # every op's times and every block, for analysis after the run
    record["samples"] = {"op_wall_s": phases[0].times, "op_cpu_s": phases[0].cpu,
                         "blocks": phases[0].blocks}
    (OUT / f"result-{workload}-s{seed}-t{int(trace)}.json").write_text(json.dumps(record))
    return record


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own process and print one table."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{workload}: correct={str(result['correct']).lower()} attempted={result['attempted']} "
              f"failed={result['failed']} fail_ratio={result['failed'] / result['attempted']:.6g}")
        for name, m in result["metrics"].items():
            print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
        status |= not result["correct"]
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cap_blas_threads()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.setup_probe:
        import_program()
        import workloads

        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT))
        try:
            workloads.prepare(args.workload, args.seed, workdir)
            ready = time.process_time()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(ready)
        return 0

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("detail: " + json.dumps(record["detail"]))
    print("environment: " + json.dumps(record["environment"]))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
