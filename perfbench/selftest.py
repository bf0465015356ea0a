"""Self-test of the benchmark on tiny workloads (a few hundred agents).

    python3 perfbench/selftest.py

Runs run.py on each workload at ``--scale tiny``, untraced and traced,
and checks that:

* the result line has exactly the keys the contract names, is correct,
  and carries every metric BENCHMARK.json names for that mode;
* the injector hit every reason in every transactions file of
  mixed-dirty;
* the traced and untraced runs agree on the report digest;
* in a directory that holds only BENCHMARK.json and perfbench/, run.py
  exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, dirt_reasons

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def line_value(stdout: str, prefix: str) -> str:
    return next(ln[len(prefix):].strip() for ln in stdout.splitlines() if ln.startswith(prefix))


def check_result(workload: str, trace: int, proc: subprocess.CompletedProcess) -> list[str]:
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != wanted:
        problems.append(f"metrics differ from BENCHMARK.json: expected {wanted}, got {got}")
    if not all(isinstance(v["value"], (int, float)) for v in result.get("metrics", {}).values()):
        problems.append("a metric value is not a number")
    return problems


def check_injector(stdout: str, workload: str) -> list[str]:
    manifest = json.loads(Path(line_value(stdout, "manifest:")).read_text())
    share = WORKLOADS[workload].dirt_share
    problems = []
    for fname, counts in manifest["injected"].items():
        missed = [r for r in dirt_reasons(fname, share) if counts.get(r, 0) < 1]
        if missed:
            problems.append(f"{fname}: injector missed {missed}")
    return problems


def check_bare_directory() -> list[str]:
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".cache", ".work", "__pycache__"))
    proc = bench(bare, "bulk-1m", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    failures = 0

    def report(label: str, problems: list[str]) -> None:
        nonlocal failures
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {label}" + "".join(f"\n    {p}" for p in problems))

    for workload in WORKLOADS:
        digests = {}
        for trace in (0, 1):
            proc = bench(ROOT, workload, trace)
            report(f"{workload} trace {trace} result", check_result(workload, trace, proc))
            if proc.returncode == 0:
                digests[trace] = line_value(proc.stdout, "report digest:")
        if WORKLOADS[workload].dirt_share > 0 and proc.returncode == 0:
            report(f"{workload} injector", check_injector(proc.stdout, workload))
        same = len(digests) == 2 and digests[0] == digests[1]
        report(f"{workload} traced and untraced digests", [] if same else [f"digests {digests}"])
    report("bare directory exits non-zero", check_bare_directory())
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
