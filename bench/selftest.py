"""Fast self-test of the benchmark harness at a tiny sample count.

    python3 bench/selftest.py

Checks, for every workload, that an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json with their units and a traced run
exactly the per-layer metrics, all with zero failures; that flipping one
recorded verdict is counted as a failure; and that the harness exits
non-zero without printing a result when the projconn sources are absent.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SAMPLES = "4"


def run(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "7", "--seconds", "1",
         "--samples", SAMPLES, *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"harness exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def expect_metrics(out: dict, spec: list[dict], label: str):
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, label
    wanted = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == wanted, f"{label}: metrics {got} differ from BENCHMARK.json {wanted}"
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (label, name)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, (label, out)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{workload} --trace {trace}"
            expect_metrics(
                result(run("--workload", workload, "--trace", trace)), bench[key], label
            )
            print(f"ok   {label}: every metric emitted with its unit, 0 failed")

    verdicts = json.loads((HERE / "verdicts.json").read_text(encoding="utf-8"))
    chart, check = "cylinder_s2xr", "eq9_two_path"
    assert verdicts[chart][check] == "pass"
    verdicts[chart][check] = "skip"
    flipped = OUT / "verdicts-flipped.json"
    flipped.write_text(json.dumps(verdicts), encoding="utf-8")
    out = result(run("--workload", "small_curved", "--verdicts", str(flipped)))
    assert not out["correct"] and out["failed"] >= 1, out
    print(f"ok   flipped verdict {chart}:{check} counted: {out['failed']} of {out['attempted']} failed")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("--workload", "small_curved", cwd=bare, script=bare / HERE.name / "run.py")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok   without projconn sources: exit {proc.returncode}, no result printed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
