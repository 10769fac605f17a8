"""Every benchmark record at seeds 7 and 11, held to committed digests.

The four workloads of perfbench/workloads.py are built at each seed, and
every cell runs once through cli.run_algo.  Each record is reduced to the
fields that are the same on every run (status, matching, nash_product,
error and feasible; no welfare float and no timing), and each
(workload, seed, algo) group to a count and one sha256 of its reduced
records in cell order.  records.json holds those; a change to a solver
that moves any result fails here and names every group that moved, and a
solve that raises fails it with its traceback.

The `cap1`/`deg3cap2` matcher (rounded logs) and dp-sparse-bigval's value
draw (math.exp) read libm, as the pinned digests in test_exact.py do.

    PYTHONPATH=src python tests/test_records.py --write

regenerates records.json from the code as it stands.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORDS = HERE / "records.json"
SEEDS = (7, 11)
FIELDS = ("status", "matching", "nash_product", "error", "feasible")

sys.path.insert(0, str(HERE.parent / "perfbench"))
import workloads  # noqa: E402

from nswmatch.cli import run_algo  # noqa: E402


def digests() -> dict[str, dict]:
    """{"workload/seed/algo": {"count": cells, "sha256": digest}} over the
    four workloads at SEEDS, each group's reduced records in cell order."""
    out = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            batch = workloads.build(name, seed)
            groups: dict[str, list] = {}
            for cell in batch.cells:
                record = run_algo(cell.algo, batch.instances[cell.inst], cell.eps)
                groups.setdefault(cell.algo, []).append(
                    {key: record[key] for key in FIELDS if key in record})
            for algo, recs in groups.items():
                text = json.dumps(recs, sort_keys=True, separators=(",", ":"))
                out[f"{name}/{seed}/{algo}"] = {
                    "count": len(recs),
                    "sha256": hashlib.sha256(text.encode()).hexdigest(),
                }
    return out


def test_records_match_the_committed_digests():
    """Every (workload, seed, algo) group has the committed count and
    digest; a failure lists each group that differs."""
    want = json.loads(RECORDS.read_text())
    got = digests()
    differ = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not differ, f"records differ from {RECORDS.name} in {differ}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    RECORDS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
