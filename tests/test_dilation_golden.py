"""Golden dilation statistics: every benchmark dilation op, compared bit for bit.

No CLI command reaches `meter`, so `tests/test_cli_golden.py` never sees a
dilation statistic, and the benchmark's own check only bounds them within a
tolerance.  `tests/data/dilation_golden.json` holds, for every op of
`workloads.prepare("dilation", s, ...)` at the seeds in SEEDS, the
`float.hex` of the coupling g, of every outcome probability P(j) and of the
pointer value.  `perfbench/workloads.py` is imported as the benchmark
imports it, with its directory on the path, and only read.  Re-record with

    PYTHONPATH=src python tests/test_dilation_golden.py

only for an intended change of the dilation's results, and name it where it
lands.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "data" / "dilation_golden.json"
SEEDS = (0, 1)


def replay(seed: int, workdir: Path) -> list[dict]:
    """float.hex of (g, P(j), pointer) for each op of the seed's dilation workload, in group order."""
    plan = workloads.prepare("dilation", seed, workdir)
    records = []
    for group in plan.groups:
        for op in group:
            g, probs, pointer = op.run()
            records.append({
                "g": float(g).hex(),
                "probs": [float(p).hex() for p in probs],
                "pointer": float(pointer).hex(),
            })
    return records


@pytest.mark.parametrize("seed", SEEDS)
def test_dilation_ops_match_the_recorded_run(seed, tmp_path):
    recorded = json.loads(GOLDEN.read_text())[str(seed)]
    assert len(recorded) == len(workloads.DILATION_SHAPES) * workloads.DILATION_PER_SHAPE
    assert replay(seed, tmp_path) == recorded


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = {str(s): replay(s, Path(tmp)) for s in SEEDS}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"recorded {sum(map(len, golden.values()))} ops to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
