"""Smoke test of the benchmark: a seconds-long traced run of the score workload.

It catches a refactor that breaks what bench/ relies on: the functions its
tracer wraps, the per-layer metrics it reports and its correctness checks
(reference_forward.*, repeatable.*, kn_normalization). The run happens in a
copy, so nothing is written under the repository's bench/out/.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_score_run_passes_its_checks(tmp_path):
    for name in ("bench", "src"):
        shutil.copytree(os.path.join(ROOT, name), tmp_path / name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "score", "--seed", "1",
         "--seconds", "2", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0
    with open(tmp_path / "BENCHMARK.json", encoding="utf-8") as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    missing = [name for name in per_layer if name not in result["metrics"]]
    assert not missing, missing
