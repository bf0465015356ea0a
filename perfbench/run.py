"""The cardcohort batch benchmark.

    python3 perfbench/run.py --workload {bulk-1m,mixed-dirty} --seed N \
        --seconds S --trace {0,1} [--scale {full,tiny}]

Run from anywhere inside a source checkout; the program under test is the
checkout's ``src/cardcohort``.  One invocation:

1. builds the workload's inputs from the seed in a child process
   (``inputs.py``, untimed, cached under ``perfbench/.cache``) and prints
   the sha256 of every input file;
2. runs the reference: an untraced in-process ``run_pipeline`` plus
   ``write_run_reports`` in a fresh child, scored with
   ``synth.evaluate_recovery``; its report digest is the one every later
   run of this invocation must reproduce;
3. with ``--trace 0``, times the work that does not depend on
   transactions five times in fresh children (``setup_s``), then runs
   ``cardcohort run`` in a fresh child, one at a time (closed loop, one
   client), for as many whole runs as fit in ``--seconds`` (at least
   one), and reports end-to-end medians;
   with ``--trace 1``, makes the same whole-run loop with traced
   in-process runs (``child.py traced``) and reports per-layer medians;
4. checks every run: exit code, report digest, rejection histogram and
   unmatched-stop total against the injected dirt, recovery floors;
5. prints a statistics table and the machine record, writes the record
   to ``perfbench/.work/results``, and prints one JSON object as the
   last line of standard output, with the metrics BENCHMARK.json names
   for the mode (``end_to_end`` untraced, ``per_layer`` traced).

Exit code 0 whenever a result line was printed (``correct`` says whether
the program's outputs passed); 2 when no result could be produced, for
instance when the checkout has no ``src/cardcohort``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

from workloads import UNKNOWN_STOP, WORKLOADS, Workload, dirt_reasons

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = BENCH / ".cache"
WORK = BENCH / ".work"

BUDGET_S = 170.0  # one invocation must end within 180 s
SETUP_SAMPLES = 5
MAX_RUNS = 50  # caps the loop when runs fail at once
KEEP_BUNDLES = 2  # cached bundles kept per workload and scale

REPORTS = {
    "week1.csv": ("rejections_year1.csv", "unmatched_year1.csv"),
    "week2.csv": ("rejections_year2.csv", "unmatched_year2.csv"),
    "followup.csv": ("rejections_followup.csv", None),
}


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


def layer_unit(name: str) -> str:
    """Unit of a metric printed in the table but not named in BENCHMARK.json."""
    return "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Outcome:
    label: str
    problems: list[str] = field(default_factory=list)


class Session:
    """Child processes and checks of one benchmark invocation."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        self.log = WORK / "children.log"
        self.outcomes: list[Outcome] = []

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, argv: list[str]) -> Proc:
        """Run one child to its end; wall, CPU and peak RSS from wait4.

        A child's ``ru_maxrss`` starts at this process's RSS when it is
        spawned, so this process stays small: it never imports cardcohort
        and leaves input building to a child.
        """
        timeout = self.left()
        if timeout <= 0:
            raise BenchError("time budget used up")
        with open(self.log, "ab") as fh:
            fh.write(f"$ {' '.join(argv)}\n".encode())
            fh.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fh,
                                    stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted (SIGTERM or Ctrl-C): leave no child behind.
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def child(self, mode: str, conf: Path, *extra: str) -> tuple[Proc, dict | None]:
        result = WORK / f"{mode}.json"
        result.unlink(missing_ok=True)
        proc = self.spawn([sys.executable, str(BENCH / "child.py"), mode, str(conf), str(result), *extra])
        if proc.code != 0 or not result.exists():
            return proc, None
        return proc, json.loads(result.read_text())

    def record(self, label: str, problems: list[str]) -> bool:
        self.outcomes.append(Outcome(label, problems))
        for p in problems:
            print(f"FAIL {label}: {p}")
        return not problems

    def loop(self, one_run) -> None:
        """Whole runs, one at a time, while the next one fits in the window."""
        start = time.monotonic()
        longest = 0.0
        for _ in range(MAX_RUNS):
            t0 = time.monotonic()
            one_run()
            longest = max(longest, time.monotonic() - t0)
            now = time.monotonic()
            if now - start + longest > self.seconds or longest > self.deadline - now:
                break


def source_hash() -> str:
    h = hashlib.sha256()
    files = sorted((SRC / "cardcohort").glob("*.py")) + [BENCH / "inputs.py", BENCH / "workloads.py"]
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def prepare(session: Session, w: Workload, seed: int, scale: str) -> tuple[Path, dict]:
    """The workload's input bundle, from the cache or freshly built."""
    key = json.dumps(
        {"workload": w.name, "generator": w.generator, "tiny": w.tiny_generator, "scale": scale,
         "seed": seed, "dirt": {f: dirt_reasons(f, w.dirt_share) for f in REPORTS},
         "dirt_share": w.dirt_share, "source": source_hash()},
        sort_keys=True,
    )
    bundle = CACHE / f"{w.name}-{scale}-{hashlib.sha256(key.encode()).hexdigest()[:16]}"
    manifest = bundle / "manifest.json"
    if manifest.exists():
        os.utime(bundle)
        print(f"inputs: cached {bundle.relative_to(ROOT)}")
    else:
        CACHE.mkdir(parents=True, exist_ok=True)
        tmp = bundle.with_name(bundle.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        t0 = time.perf_counter()
        proc = session.spawn([sys.executable, str(BENCH / "inputs.py"), w.name, str(seed), scale, str(tmp)])
        if proc.code != 0:
            raise BenchError(f"input builder exited with {proc.code}; see {session.log}")
        tmp.rename(bundle)
        print(f"inputs: built {bundle.relative_to(ROOT)} in {time.perf_counter() - t0:.1f} s")
        old = sorted(CACHE.glob(f"{w.name}-{scale}-*"), key=lambda p: p.stat().st_mtime, reverse=True)
        for stale in old[KEEP_BUNDLES:]:
            shutil.rmtree(stale, ignore_errors=True)
    return bundle, json.loads(manifest.read_text())


def write_run_config(w: Workload, bundle: Path, manifest: dict, threads: int) -> Path:
    """The workload's run config; mixed-dirty leaves the week starts out."""
    b = manifest["bundle"]
    lines = [f"{k}={bundle / b[k]}" for k in ("year1", "year2", "followup", "stops1", "stops2", "r4", "taz")]
    lines += [f"center={b['center']}", f"threads={threads}"]
    if w.give_week_starts:
        lines += [f"{k}={b[k]}" for k in ("week1_start", "week2_start", "followup_start")]
    conf = WORK / f"{w.name}.conf"
    conf.write_text("\n".join(lines) + "\n")
    return conf


def report_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def dirt_problems(out: Path, manifest: dict) -> list[str]:
    """Rejection histograms and unmatched totals against the injected dirt."""
    problems = []
    for fname, (rejections, unmatched) in REPORTS.items():
        injected = manifest["injected"][fname]
        expected = {r: n for r, n in injected.items() if r != UNKNOWN_STOP}
        try:
            rows = (out / rejections).read_text().splitlines()[1:]
            got = dict(Counter(row.split(",", 1)[1] for row in rows))
            if got != expected:
                problems.append(f"{rejections}: rejected {got}, injected {expected}")
            if unmatched:
                rows = (out / unmatched).read_text().splitlines()[1:]
                total = sum(int(row.rsplit(",", 1)[1]) for row in rows)
                if total != injected.get(UNKNOWN_STOP, 0):
                    problems.append(f"{unmatched}: {total} unmatched, injected {injected.get(UNKNOWN_STOP, 0)}")
        except (OSError, IndexError, ValueError) as exc:
            problems.append(f"cannot read {fname} reports: {exc}")
    return problems


def check_reports(session: Session, label: str, proc: Proc, out: Path, manifest: dict,
                  digest: str | None) -> tuple[bool, str | None]:
    """Exit code, digest and dirt checks of one run; removes its reports."""
    if proc.code != 0:
        ok = session.record(label, [f"exit code {proc.code}; see {session.log}"])
        shutil.rmtree(out, ignore_errors=True)
        return ok, None
    got = report_digest(out)
    problems = dirt_problems(out, manifest)
    if digest is not None and got != digest:
        problems.append(f"report digest {got[:16]} differs from reference {digest[:16]}")
    shutil.rmtree(out, ignore_errors=True)
    return session.record(label, problems), got


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> str:
    """The highest percentile that has at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}={statistics.quantiles(values, n=100, method='inclusive')[p - 1]:.6g}"
    return "none (fewer than 20 samples)"


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, "python": sys.version.split()[0],
            "loadavg_before": loadavg()}


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


def run_reference(session: Session, conf: Path, bundle: Path, manifest: dict,
                  w: Workload) -> tuple[str | None, dict]:
    out = WORK / "out-reference"
    shutil.rmtree(out, ignore_errors=True)
    proc, res = session.child("reference", conf, str(out), str(bundle / "truth.csv"))
    if res is None:
        session.record("reference", [f"exit code {proc.code}; see {session.log}"])
        shutil.rmtree(out, ignore_errors=True)
        return None, {}
    _ok, digest = check_reports(session, "reference", proc, out, manifest, None)
    home_floor, work_floor = w.recall_floor
    floors = []
    if res["home_recall"] < home_floor:
        floors.append(f"home recall {res['home_recall']:.4f} below {home_floor}")
    if res["work_recall"] < work_floor:
        floors.append(f"work recall {res['work_recall']:.4f} below {work_floor}")
    if floors:
        session.record("reference recovery", floors)
    print(f"report digest: {digest}")
    print(f"reference: run_pipeline {res['run_pipeline_s']:.3f} s, write_run_reports {res['write_s']:.3f} s, "
          f"home recall {res['home_recall']:.6f}, work recall {res['work_recall']:.6f}, "
          f"group accuracy {res['group_accuracy']:.6f}")
    return digest, res


def end_to_end(session: Session, conf: Path, manifest: dict, digest: str | None,
               ref: dict) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for i in range(SETUP_SAMPLES):
        proc, res = session.child("setup", conf)
        if session.record(f"setup {i}", [] if res else [f"exit code {proc.code}"]):
            samples.setdefault("setup_s", []).append(res["setup_s"])

    rows = sum(manifest["data_lines"].values())
    count = 0

    def one_run() -> None:
        nonlocal count
        count += 1
        out = WORK / f"out-run{count}"
        shutil.rmtree(out, ignore_errors=True)
        proc = session.spawn([sys.executable, "-m", "cardcohort.cli", "run",
                              "--config", str(conf), "--out", str(out)])
        ok, _ = check_reports(session, f"run {count}", proc, out, manifest, digest)
        if ok:
            for k, v in (("run_s", proc.wall), ("rows_per_s", rows / proc.wall),
                         ("cpu_s", proc.cpu), ("peak_rss_mb", proc.rss_mb)):
                samples.setdefault(k, []).append(v)

    session.loop(one_run)
    for k in ("home_recall", "work_recall", "group_accuracy"):
        if k in ref:
            samples[k] = [ref[k]]
    return samples


def per_layer(session: Session, conf: Path, manifest: dict, digest: str | None,
              ref: dict, spans: Path) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    count = 0

    def one_run() -> None:
        nonlocal count
        count += 1
        out = WORK / f"out-traced{count}"
        shutil.rmtree(out, ignore_errors=True)
        proc, res = session.child("traced", conf, str(out), str(spans))
        if res is None:
            session.record(f"traced {count}", [f"exit code {proc.code}; see {session.log}"])
            shutil.rmtree(out, ignore_errors=True)
            return
        metrics = dict(res["metrics"])
        ok, _ = check_reports(session, f"traced {count}", proc, out, manifest, digest)
        if not ok:
            return
        metrics["trace.total_s"] = res["total_s"]
        if ref:
            metrics["trace.overhead_s"] = res["total_s"] - ref["run_pipeline_s"] - ref["write_s"]
        for k, v in metrics.items():
            samples.setdefault(k, []).append(v)
        if count == 1:
            for label, names in (("not observed", res["not_observed"]), ("missing targets", res["missing"]),
                                 ("count errors", res["count_errors"])):
                if names:
                    print(f"trace {label}: {', '.join(names)}")

    session.loop(one_run)
    return samples


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a few hundred agents, for the self-test")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "cardcohort" / "__init__.py").is_file():
        print(f"error: no cardcohort sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    session = Session(args.seconds)
    mach = machine()
    threads = min(w.threads, mach["nproc"])
    print(f"workload {w.name} seed {args.seed} scale {args.scale} trace {args.trace}: {w.why}")
    print(f"machine: nproc {mach['nproc']}, {mach['cpu']}, Python {mach['python']}, "
          f"loadavg {mach['loadavg_before']}; cardcohort threads={threads}")

    try:
        bundle, manifest = prepare(session, w, args.seed, args.scale)
        print(f"manifest: {bundle / 'manifest.json'}")
        for name, digest in sorted(manifest["sha256"].items()):
            print(f"input sha256 {name}: {digest}")
        print(f"input data lines: {manifest['data_lines']}; injected: "
              f"{ {f: sum(c.values()) for f, c in manifest['injected'].items()} }")
        conf = write_run_config(w, bundle, manifest, threads)
        digest, ref = run_reference(session, conf, bundle, manifest, w)
        if args.trace:
            spans = WORK / "results" / f"{w.name}-seed{args.seed}-spans.json"
            spans.parent.mkdir(exist_ok=True)
            samples = per_layer(session, conf, manifest, digest, ref, spans)
        else:
            samples = end_to_end(session, conf, manifest, digest, ref)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    missing = [name for name in units if not samples.get(name)]
    if missing:
        session.record("metrics", [f"not measured: {', '.join(missing)}"])
    # Recorded but not named in BENCHMARK.json, so printed here only:
    # ingest.derive_week_start_s reads 0 on every bulk-1m run.
    extra = sorted(set(samples) - set(units))
    print(f"{'metric':30} {'median':>14} {'unit':6} {'n':>3}  highest tail percentile")
    for name in list(units) + extra:
        vals = samples.get(name, [])
        value = median(vals)
        shown = f"{value:.0f}" if float(value).is_integer() else f"{value:.6g}"
        print(f"{name:30} {shown:>14} {units.get(name, layer_unit(name)):6} {len(vals):3d}  {tail(vals)}")

    failed = sum(1 for o in session.outcomes if o.problems)
    attempted = len(session.outcomes)
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.4f}")
    mach["loadavg_after"] = loadavg()
    print(f"loadavg after: {mach['loadavg_after']}")
    metrics = {name: {"value": median(samples.get(name, [])), "unit": unit} for name, unit in units.items()}
    record = {"workload": w.name, "seed": args.seed, "scale": args.scale, "trace": args.trace,
              "machine": mach, "inputs": manifest, "samples": samples,
              "problems": [asdict(o) for o in session.outcomes if o.problems], "metrics": metrics}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
