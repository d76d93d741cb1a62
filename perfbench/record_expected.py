"""Record what every benchmark operation produces at the current commit.

    python3 perfbench/record_expected.py

Writes ``perfbench/expected.json``: the counted rows and the failing rows of
each verify call, the sha256 of each ``expand`` table and of each rendered
SVG (null where the render fails), and the render pool (every catalog id).
The benchmark counts any other failure as one that is new since the record.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import workloads as wl


def record_op(workload, op, program, scratch) -> dict:
    out = program.call(op.resolved_argv(scratch))
    if workload.check is wl.check_rows:
        rows, failing = wl.counted_rows(out.stdout)
        return {"counted": len(rows), "failing": sorted(failing)}
    if workload.check is wl.check_svg:
        path = scratch / wl.SCRATCH_FILE
        digest = wl.sha256(path.read_bytes()) if out.rc == 0 else None
        path.unlink(missing_ok=True)
        return {"sha256": digest}
    if out.rc != 0:
        raise wl.SetupError(f"{op.key} exited {out.rc}: {out.stderr}")
    return {"sha256": wl.sha256(out.stdout)}


def main():
    program = wl.Program()
    program.load()
    atlas = json.loads(program.call(["list", "--json"]).stdout)
    expected = {"render_ids": [e["id"] for e in atlas["entries"]], "ops": {}}
    scratch = wl.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=scratch))
    try:
        for workload in wl.build_workloads(expected).values():
            for op in workload.ops:
                program.unload()  # every record from a fresh import
                program.load()
                expected["ops"][op.key] = record_op(workload, op, program, scratch)
                print(op.key, expected["ops"][op.key], flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    wl.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")


if __name__ == "__main__":
    main()
