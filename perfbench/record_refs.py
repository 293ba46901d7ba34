"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_refs.py [sweep] [mc] [analyses]

Runs every distinct op of the named workloads (all three by default) on the
checkout's code and writes perfbench/refs/<workload>.json.  References are
recorded once, from the commit whose outputs define correct behaviour; a
change that alters them alters what the benchmark accepts.  An `--instance`
op and its `--file` twin share one reference, and must print the same.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def record(name: str) -> dict:
    import checks
    import workloads

    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="refs-", dir=run.OUT))
    try:
        refs: dict = {}
        plan = workloads.prepare(name, 0, workdir)
        for op in (op for group in plan.groups for op in group):
            raw = op.run()
            got = op.result(raw)
            if op.ref_key in refs and refs[op.ref_key] != got:
                sys.exit(f"{' '.join(op.argv)}: output differs from its --instance twin")
            refs[op.ref_key] = got
            if name == "mc" and (reason := checks.check_mc_spread(raw[1])):
                print(f"warning: {' '.join(op.argv)}: {reason}")
        return refs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    run.cap_blas_threads()
    run.import_program()
    import workloads

    for name in sys.argv[1:] or ("sweep", "mc", "analyses"):
        refs = record(name)
        path = workloads.REFS / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
        print(f"wrote {len(refs)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
