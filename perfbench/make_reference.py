"""Regenerate reference.json: every op's numeric outputs at the default seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run only at a commit whose outputs are known good; the benchmark fails any
op at the default seed whose outputs leave these values (see child.REL_TOL).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import child


def main(names) -> int:
    child._import_package()
    from workloads import DEFAULT_SEED, WORKLOADS

    out = child.ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    reference = json.loads(child.REFERENCE.read_text()) if child.REFERENCE.exists() else {}
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            inputs = workload.make_inputs(DEFAULT_SEED, "full", Path(tmp))
            ops = workload.check(inputs, workload.run(inputs)[0])
        bad = [f"{op.op_id}: {op.reason}" for op in ops if op.reason is not None]
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        reference[name] = {op.op_id: op.values for op in ops}
        print(f"{name}: {len(ops)} ops")
    child.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
