"""Benchmark of the ansing CLI: end-to-end metrics, or per-layer ones traced.

    python3 bench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --all              # every workload, traced and not
    python3 bench/run.py --write-reference  # re-record reference/*.json

One run starts fresh child interpreters (``child.py``) one after another
until ``--seconds`` is used up, at least three of them; each runs the whole
job list of the workload for the seed.  With ``--trace 1`` the children
alternate between untraced and traced, at least two of each.  The outputs
of every child are checked (``checks.py``), every metric is printed with its
unit and sample count, the run is recorded with its commit, Python version,
nproc, seed and workload under ``.bench_results/``, and the last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

End-to-end metrics are medians over the untraced children; ``failed`` over
``attempted`` is the run's failed fraction.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import jobs  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
MIN_CHILDREN = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150
REFERENCE_SEEDS = range(10)
TMP_DIR = ROOT / ".bench_tmp"
RESULTS_DIR = ROOT / ".bench_results"


class BenchError(RuntimeError):
    pass


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def spawn_child(workload: str, seed: int, spans: Path | None) -> dict:
    """One child's record; traced, writing its spans to ``spans``, if given."""
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_DIR))
    out = tmp / "child-result.json"
    command = [
        sys.executable,
        "-I",  # no user site, no PYTHON* variables: only the checkout's code
        "-X",
        f"pycache_prefix={TMP_DIR / 'pycache'}",
        str(BENCH / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--tmp", str(tmp),
        "--out", str(out),
    ]
    if spans:
        command += ["--spans", str(spans)]
    try:
        spawned = time.monotonic()
        # its own session, so a timeout also stops the child's sweep workers
        with subprocess.Popen(
            command + ["--spawned", repr(spawned)],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        ) as proc:
            try:
                _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired as exc:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError(f"child for {workload} ran past {CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"child for {workload} exited {proc.returncode}:\n{stderr.strip()}")
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def end_to_end(records: list[dict]) -> dict[str, float]:
    """Medians over the children; latency percentiles over all their jobs."""
    latencies = [s for record in records for s in record["latencies_s"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "job_p50_ms": 1000 * percentile(latencies, 0.50),
        "job_p90_ms": 1000 * percentile(latencies, 0.90),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def collect(workload: str, seed: int, seconds: float, spans: Path | None) -> tuple[list, list]:
    """Untraced and traced child records, within the time budget.

    With ``spans`` every other child is traced, and each traced one writes
    its spans there over the one before.
    """
    trace = spans is not None
    untraced: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    started = time.monotonic()
    while True:
        want_traced = trace and len(traced) < len(untraced)  # alternate, untraced first
        enough = len(untraced) + len(traced) >= (2 * MIN_TRACED if trace else MIN_CHILDREN)
        projected = time.monotonic() - started + statistics.median(durations or [0.0])
        if enough and not want_traced and projected > seconds:
            break
        t0 = time.monotonic()
        record = spawn_child(workload, seed, spans if want_traced else None)
        durations.append(time.monotonic() - t0)
        (traced if want_traced else untraced).append(record)
    return untraced, traced


def source_identity() -> dict[str, str]:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ansing").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():  # never the commit of a repository around the checkout
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit or "unknown (not a git checkout)", "source_sha256": digest.hexdigest()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its full result record."""
    if not (ROOT / "src" / "ansing" / "cli.py").is_file():
        raise BenchError(f"no ansing sources under {ROOT / 'src'}: run from a full checkout")
    RESULTS_DIR.mkdir(exist_ok=True)
    spans = RESULTS_DIR / f"spans-{workload}-seed{seed}.jsonl" if trace else None
    untraced, traced = collect(workload, seed, seconds, spans)

    plan = jobs.plan(workload, seed)
    reference = checks.load_reference(workload)
    attempted = failed = 0
    wrong = False
    failures: dict[str, int] = {}
    for record in untraced + traced:
        problems = checks.check_run(plan.jobs, record["results"], reference)
        attempted += len(record["results"])
        failed += len({p.job for p in problems})
        wrong = wrong or any(p.wrong_answer for p in problems)
        for p in problems:
            key = f"{checks.job_key(plan.jobs[p.job])}: {p.reason}"
            failures[key] = failures.get(key, 0) + 1

    metrics = end_to_end(untraced)
    units = dict(END_TO_END)
    if trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in LAYER_METRICS
            if name != "trace.overhead_s"
        }
        # each traced child runs right after an untraced one: pair them, so
        # drift in machine speed between the pair's members stays small
        layers["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced))
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        metrics = layers
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        **source_identity(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seconds": seconds,
        "jobs_per_child": len(plan.jobs),
        "samples": {"untraced": len(untraced), "traced": len(traced)},
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def report(record: dict) -> None:
    """Human-readable lines, then save the record under .bench_results/."""
    children = record["samples"]["traced" if record["trace"] else "untraced"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"commit={record['commit']} python={record['python']} nproc={record['nproc']}"
    )
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:>12}  {name:<40} {metric['value']:>14.6g} {metric['unit']:<6} ({children} children)")
    print(f"{record['workload']:>12}  {'failed_frac':<40} {record['failed_frac']:>14.6g} ratio  "
          f"({record['failed']}/{record['attempted']} jobs)")
    for reason, count in record["failures"].items():
        print(f"{record['workload']:>12}  FAILED x{count}: {reason}")
    path = RESULTS_DIR / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def result_line(record: dict) -> dict:
    keys = ("correct", "attempted", "failed", "metrics")
    return {key: record[key] for key in keys}


def write_reference() -> None:
    """Record stdout digests of every expected-success job of seeds 0-9.

    A job is only recorded once it passes every self-check, so the
    reference never freezes an output the checks reject.
    """
    import child

    cli = child.import_ansing()
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    TMP_DIR.mkdir(exist_ok=True)
    for workload in jobs.WORKLOADS:
        reference: dict[str, str] = {}
        for seed in REFERENCE_SEEDS:
            plan = jobs.plan(workload, seed)
            tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=TMP_DIR))
            try:
                child.prepare(cli, plan, tmp)
                results = [child.run_job(cli, job["argv"], tmp) for job in plan.jobs]
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            problems = checks.check_run(plan.jobs, results, reference)
            for p in problems:  # left out of the reference
                print(f"{workload} seed {seed}: {checks.job_key(plan.jobs[p.job])}: {p.reason}")
            bad = {p.job for p in problems}
            for index, (job, result) in enumerate(zip(plan.jobs, results)):
                if index not in bad and job["expect"] != 2:
                    reference[checks.job_key(job)] = checks.digest(result["stdout"])
        path = checks.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{workload}: {len(reference)} reference digests -> {path.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description="ansing CLI benchmark")
    parser.add_argument("--workload", choices=jobs.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)  # run_seconds in BENCHMARK.json
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    try:
        if args.write_reference:
            write_reference()
            return 0
        if args.all:
            summary = {}
            for workload in jobs.WORKLOADS:
                for trace in (False, True):
                    record = measure(workload, args.seed, args.seconds, trace)
                    report(record)
                    summary[f"{workload}/trace{int(trace)}"] = result_line(record)
            print(json.dumps(summary))
            return 0
        if not args.workload:
            parser.error("give --workload NAME or --all")
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    report(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
