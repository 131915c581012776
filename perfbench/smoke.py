"""Smoke test of the benchmark itself, at a tiny size (about a minute):

    python3 perfbench/smoke.py

- every workload runs untraced with error_rate 0 and prints every
  end-to-end metric of BENCHMARK.json with its unit;
- one traced run prints every per-layer metric with its unit;
- a report corrupted in the benchmark's own check path is counted as a
  failed operation on every workload;
- in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT) -> tuple[int, list]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def expect(cond, what):
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def check_metrics(lines, spec, what):
    res = json.loads(lines[-1])
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    expect(got == want, f"{what}: metric names and units match BENCHMARK.json")
    for name, unit in want.items():
        expect(any(ln.split()[:1] == [name] and ln.split()[-1] == unit for ln in lines[:-1]),
               f"{what}: {name} printed with unit {unit}")
    return res


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tiny = ["--seed", "1", "--seconds", "1", "--smoke"]
    for wl in [w["name"] for w in bench["workloads"]]:
        code, lines = run(["--workload", wl, "--trace", "0", *tiny])
        res = check_metrics(lines, bench["end_to_end"], f"{wl} untraced")
        expect(code == 0 and res["correct"] and res["failed"] == 0, f"{wl}: error_rate 0")
        code, lines = run(["--workload", wl, "--trace", "0", "--corrupt", *tiny])
        res = json.loads(lines[-1])
        expect(code == 1 and not res["correct"] and res["failed"] == 1,
               f"{wl}: the corrupted report is counted in error_rate")
    code, lines = run(["--workload", "gram-oracle", "--trace", "1", *tiny])
    res = check_metrics(lines, bench["per_layer"], "traced")
    expect(code == 0 and res["correct"], "traced run checks correct")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run(["--workload", "cli-docs", "--seed", "1", "--seconds", "1", "--trace", "0"],
                      cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and not any(ln.startswith("{") for ln in lines),
           "without the program: non-zero exit and no result")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
