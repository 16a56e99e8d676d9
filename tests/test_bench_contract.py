"""The benchmark's result contract: what BENCHMARK.json declares, each run reports.

Each test runs one shortest pass of ``benchmark/run.py`` in a subprocess
(``--seconds 0``) on seed 0, which benchmark comparisons do not use: a traced
run writes ``.bench_traces/<workload>-seed0.json`` and so leaves the traces of
measured seeds alone. The last line of its standard output must be a JSON
result with every output correct and no failed operation, naming exactly the
metrics BENCHMARK.json declares: the per-layer names for a traced run, the
end-to-end names otherwise. A traced run drops the per-layer metrics of any
wrapped function the CLI never called, so a program change that stops
calling one (``cli.gram``, say) breaks this contract.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_traced_run_reports_every_per_layer_metric(workload):
    names = set(_run(workload, trace=1)["metrics"])
    assert names == {m["name"] for m in DECLARED["per_layer"]}


def test_untraced_run_reports_every_end_to_end_metric():
    names = set(_run("retrieval", trace=0)["metrics"])
    assert names == {m["name"] for m in DECLARED["end_to_end"]}
