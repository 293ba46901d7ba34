"""Golden CLI run: every command, compared byte for byte with a recorded run.

`tests/data/cli_golden.json` holds, for each argv of `golden_commands()`, the
exit code, stdout, stderr and every file the command wrote: its `--out` and
any `conjecture-fail-*.json`.  The set covers every subcommand on every
registry instance by `--instance` and by `--file`, each with and without
`--out`; the two non-diagonal files under `tests/data/` (registry families
conjugated by a fixed unitary, one of them with its outcomes permuted), which
reach the general eigenbasis path of `build_F`; `weak-limit --psi-f` in
both of its forms; and usage errors (exit 2) and analytic failures (exit
1), two of them on the non-commuting and the incomplete instance files
there.

Each command runs in its own empty directory with a relative `--out`.  The
directory, the directory of exported registry instances and `tests/data` are
replaced by `<CWD>`, `<INST>` and `<DATA>` before comparing.  Re-record with

    PYTHONPATH=src python tests/test_cli_golden.py

only for an intended output change, and name that change where it lands: the
recorder lists every command whose run changed, was added or was removed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from weaklab import cli
from weaklab.files import save_instance
from weaklab.registry import REGISTRY, get_instance

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "cli_golden.json"
#: non-diagonal instance files under tests/data, run like the registry's
ROTATED = ("qubit-linear-rotated", "quad-cx-rotated-permuted")
#: argparse wraps its usage text to the terminal width, which COLUMNS sets
COLUMNS = "80"

INSTANCE_COMMANDS = [
    ["validate"],
    ["cv-solve", "--g", "0.1"],
    ["pole-order"],
    ["truncation-check", "--n", "1"],
    ["truncation-check", "--n", "2", "--truncate-mode", "prefix"],
    ["weak-limit"],
    ["weak-limit", "--theta-f", "0.3"],
    ["weak-limit", "--grid-min", "0.001", "--grid-max", "0.01", "--grid-points", "5"],
    ["svd-asymptotics"],
    ["svd-asymptotics", "--n", "2"],
    ["proof-claim"],
    ["mc-run", "--g", "0.1", "--trials", "20000", "--seed", "3"],
]
#: a raw family's own target: it has no observable
RAW_COMMANDS = [
    ["cv-solve", "--g", "0.1", "--a", "1,1"],
    ["pole-order", "--a", "1,-1"],
]
OTHER_COMMANDS = [
    ["registry", "list"],
    *(["registry", action, name] for action in ("show", "export") for name in REGISTRY),
    *(["registry", "export", name, "--out", "out.json"] for name in REGISTRY),
    ["conjecture-sweep", "--trials", "5"],
    ["conjecture-sweep", "--trials", "5", "--seed", "3", "--out", "out.csv"],
    ["conjecture-sweep", "--trials", "25", "--seed", "1", "--out", "out.csv"],
    ["conjecture-sweep", "--trials", "3", "--dim", "3", "--n-out", "4"],
    # a large fixed shape: the block's trials solve and run their ladders in two chunks
    ["conjecture-sweep", "--trials", "25", "--dim", "12", "--n-out", "16", "--seed", "2", "--out", "out.csv"],
    # the order-8 series fits fall short of full rank: the verdict is tagged, no warning printed
    ["svd-asymptotics", "--n", "8", "--instance", "eq70"],
    ["svd-asymptotics", "--n", "8", "--instance", "eq70", "--out", "out.csv"],
    # every trial fails at --tol 0 and is serialized beside --out, or in the directory
    ["conjecture-sweep", "--trials", "2", "--tol", "0"],
    ["conjecture-sweep", "--trials", "2", "--tol", "0", "--out", "out.csv"],
    # a final state from --psi-f: dim reals, or 2 dim interleaved re,im values, either normalized
    *(["weak-limit", "--psi-f", psi, *source] for source in (["--instance", "qubit-linear"],
      ["--file", "<DATA>/qubit-linear-rotated.json"]) for psi in ("0.6,0.8", "0.6,0.3,-0.2,0.8")),
]
ERROR_COMMANDS = [
    [],
    ["validate", "--instance", "nope"],
    ["validate", "--file", "missing.json"],
    ["validate", "--instance", "qubit-linear", "--out", "missing/out.csv"],
    ["registry", "export", "eq70", "--out", "missing/out.json"],
    ["registry", "show"],
    ["conjecture-sweep", "--trials", "2", "--tol", "0", "--out", "missing/out.csv"],
    ["conjecture-sweep", "--dim", "30"],
    ["truncation-check", "--instance", "qubit-linear", "--n", "0"],
    ["cv-solve", "--instance", "qubit-linear", "--g", "5"],
    ["cv-solve", "--instance", "eq70", "--g", "0.1", "--a", "1e308,-1e308"],
    ["cv-solve", "--instance", "quad-cx", "--g", "0.1", "--a", "1,2"],
    ["weak-limit", "--instance", "qubit-linear", "--psi-f", "1,2,3"],
    ["weak-limit", "--instance", "qubit-linear", "--grid-min", "0.1", "--grid-max", "0.01"],
    ["mc-run", "--instance", "eq70", "--g", "0.1"],
    ["mc-run", "--instance", "qubit-linear", "--g", "0.1", "--trials", "10", "--out", "missing/out.csv"],
    # a valid POVM with no common eigenbasis, and a file whose one outcome is not a POVM
    ["cv-solve", "--file", "<DATA>/noncommuting.json", "--g", "0.1"],
    ["validate", "--file", "<DATA>/incomplete.json"],
]


def golden_commands() -> list[list[str]]:
    sources = []
    for name in REGISTRY:
        sources += [(name, ["--instance", name]), (name, ["--file", f"<INST>/{name}.json"])]
    sources += [(name, ["--file", f"<DATA>/{name}.json"]) for name in ROTATED]
    commands = []
    for name, source in sources:
        for cmd in INSTANCE_COMMANDS + (RAW_COMMANDS if name == "eq70" else []):
            commands += [[*cmd, *source], [*cmd, *source, "--out", "out.csv"]]
    return commands + OTHER_COMMANDS + ERROR_COMMANDS


def export_registry(inst: Path) -> None:
    for name in REGISTRY:
        save_instance(get_instance(name), inst / f"{name}.json")


def run_command(argv: list[str], cwd: Path, inst: Path) -> dict:
    """Run argv in cwd through cli.main; rc, output and files written, with placeholders."""
    places = {"<CWD>": str(cwd), "<INST>": str(inst), "<DATA>": str(DATA)}

    def hide(text: str) -> str:
        for mark, path in places.items():
            text = text.replace(path, mark)
        return text

    for mark, path in places.items():
        argv = [a.replace(mark, path) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    finally:
        os.chdir(here)
    files = {
        str(p.relative_to(cwd)): hide(p.read_text())
        for p in sorted(cwd.rglob("*")) if p.is_file()
    }
    return {"rc": rc, "stdout": hide(stdout.getvalue()), "stderr": hide(stderr.getvalue()), "files": files}


def key(argv: list[str]) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def inst(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("inst")
    export_registry(path)
    return path


def test_every_subcommand_is_in_the_golden_set():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in golden_commands() if argv} == set(sub.choices)


def test_golden_set_is_the_recorded_set(recorded):
    keys = [key(argv) for argv in golden_commands()]
    assert len(set(keys)) == len(keys)
    assert keys == list(recorded)


@pytest.mark.parametrize("argv", golden_commands(), ids=key)
def test_command_matches_the_recorded_run(argv, recorded, inst, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert run_command(argv, tmp_path, inst) == recorded[key(argv)]


def record() -> None:
    os.environ["COLUMNS"] = COLUMNS
    warnings.simplefilter("error")  # as the suite runs
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        inst = Path(tmp, "inst")
        inst.mkdir()
        export_registry(inst)
        for i, argv in enumerate(golden_commands()):
            cwd = Path(tmp, f"c{i}")
            cwd.mkdir()
            golden[key(argv)] = run_command(argv, cwd, inst)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for label, keys in (
        ("changed", [k for k in golden if k in old and golden[k] != old[k]]),
        ("added", [k for k in golden if k not in old]),
        ("removed", [k for k in old if k not in golden]),
    ):
        for k in keys:
            print(f"{label}: {k}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"recorded {len(golden)} commands to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
