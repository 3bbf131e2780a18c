"""The benchmark's own test: every workload at its smoke size, run to its
end with verification, untraced and traced.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
END_TO_END = {"setup_s", "verdict_s", "checks_per_s", "peak_rss_mb"}


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["levels-sweep", "order-sweep", "queries"])
def test_smoke(workload):
    res = _run(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())
    traced = _run(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    bench = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    assert set(traced["metrics"]) == {m["name"] for m in bench["per_layer"]}
