"""The benchmark's ops run and pass their own checks.

`perfbench/workloads.py` is imported as the benchmark imports it, with its
directory on the path, and only read: each workload is prepared in a
temporary directory at the benchmark's default seed.  A change to the
library that would make a benchmark op fail (a `CvSolution` field it reads,
a meter signature, a changed CLI line) then fails here first.  The
`sweep`, `analyses` and `dilation` workloads are checked over one whole
cycle, every op once; `mc` ops are slow, so only its first op runs.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name, n_ops", [("mc", 1)])
def test_first_ops_pass_their_checks(tmp_path, name, n_ops):
    plan = workloads.prepare(name, 0, tmp_path)
    refs = plan.refs()
    for op in itertools.islice(plan.ops(), n_ops):
        assert op.check(op.run(), refs) is None


@pytest.mark.parametrize("name", ["sweep", "analyses", "dilation"])
def test_every_op_of_one_cycle_passes_its_check(tmp_path, name):
    plan = workloads.prepare(name, 0, tmp_path)
    refs = plan.refs()
    ops = [op for group in plan.groups for op in group]
    # a cycle visits every group once, and the clock reads after whole blocks of it
    cycle = list(itertools.islice(plan.ops(), len(ops)))
    assert sorted(map(id, cycle)) == sorted(map(id, ops))
    assert len(ops) % plan.block == 0
    for op in ops:
        assert op.check(op.run(), refs) is None, getattr(op, "argv", op)
