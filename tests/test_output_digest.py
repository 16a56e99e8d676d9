"""``tools/output_digest.py``: one pass of a workload, one digest per output kind.

Runs the tool twice on seed 0, which benchmark comparisons do not use. The
same tree must print the same digests, or comparing two trees with it shows
nothing.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ["codebook", "rotations", "aggregates", "normalized", "eval"]


def _digest(workload: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py"), "--tree", str(ROOT),
         "--workload", workload, "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_same_tree_gives_same_digest_per_output_kind():
    first = _digest("retrieval")
    assert [line.split("\t")[:3] for line in first] == [["retrieval", "seed 0", kind] for kind in KINDS]
    assert all(len(line.split("\t")[3]) == 64 for line in first)
    assert _digest("retrieval") == first
