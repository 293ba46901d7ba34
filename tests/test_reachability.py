"""Reachability gate: every public function of the package is entered by a command or the benchmark.

The golden argv of every subcommand (`test_cli_golden.golden_commands`) and,
for each benchmark workload, its `prepare` plus its first op run under one
`sys.setprofile` hook that records every code object entered.  A public
function of `src/weaklab` is a module-level function or a method written in
a public class (properties and dunders included; a memoized function counts
by the function it wraps).  The test fails on any that was never entered,
unless REACHED_ELSEWHERE names it with its reason: library surface that no
analysis path reaches is deleted, not kept.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import sys
from pathlib import Path

import weaklab

import test_cli_golden as golden

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

#: public functions that no command or benchmark op enters, each with the reason it stays
REACHED_ELSEWHERE = {
    "cli.entry_point": "the console script's process entry; tests run cli.main in process",
    "contextual.exact_cv_exists": "a span of the benchmark tracer, which names it",
    "weak.conjecture_trial": "a span of the benchmark tracer, which names it",
    "linalg.psd_sqrt": "root_family's fallback for a non-commuting family, which no command reaches",
    "povm.measurement_operators": "a span of the benchmark tracer, which names it",
}

WORKLOADS = ("sweep", "mc", "analyses", "dilation")


def modules() -> list:
    return [importlib.import_module(f"weaklab.{info.name}") for info in pkgutil.iter_modules(weaklab.__path__)]


def public_functions() -> dict[str, object]:
    """'module.name' or 'module.Class.name' -> code object, for every public function."""
    src = os.path.dirname(weaklab.__file__)
    found = {}

    def add(name, obj):
        fn = inspect.unwrap(obj)
        if inspect.isfunction(fn) and os.path.dirname(fn.__code__.co_filename) == src:
            found[name] = fn.__code__

    for mod in modules():
        short = mod.__name__.removeprefix("weaklab.")
        for name, value in vars(mod).items():
            if name.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if not inspect.isclass(value):
                add(f"{short}.{name}", value)
                continue
            for attr, member in vars(value).items():
                if attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__")):
                    continue
                if isinstance(member, property):
                    member = member.fget
                member = getattr(member, "func", getattr(member, "__func__", member))
                add(f"{short}.{name}.{attr}", member)
    return found


def run_commands_and_workloads(tmp: Path) -> None:
    inst = tmp / "inst"
    inst.mkdir()
    golden.export_registry(inst)
    for k, argv in enumerate(golden.golden_commands()):
        cwd = tmp / f"cmd{k}"
        cwd.mkdir()
        golden.run_command(argv, cwd, inst)
    for name in WORKLOADS:
        workdir = tmp / name
        workdir.mkdir()
        next(workloads.prepare(name, 0, workdir).ops()).run()


def test_every_public_function_is_reached(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", golden.COLUMNS)
    for mod in modules():  # a memoized function that earlier tests filled is entered again
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    entered = set()
    record = entered.add
    sys.setprofile(lambda frame, event, arg: record(frame.f_code))
    try:
        run_commands_and_workloads(tmp_path)
    finally:
        sys.setprofile(None)
    public = public_functions()
    assert set(REACHED_ELSEWHERE) <= set(public), "an allowlisted name no longer exists"
    assert len(REACHED_ELSEWHERE) < 10
    missed = sorted(name for name, code in public.items() if code not in entered)
    assert missed == sorted(REACHED_ELSEWHERE)
