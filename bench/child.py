"""One timed run of one workload, in a fresh interpreter.

``run.py`` starts this script once per sample so the package's lru caches
start empty, as they do for a CLI user who pays them on every invocation.
It imports ``ansing`` from the checkout's ``src``, builds the workload's plan
from the seed, writes the fixtures and runs the set-up calls, then issues the
jobs through ``ansing.cli.run`` one after another (a closed loop with one
client) and writes every output, latency and resource figure to ``--out``.
Checking the outputs is left to the parent, outside the timed region.

    python3 bench/child.py --workload verify --seed 0 --tmp DIR --out FILE \
        --spawned MONOTONIC [--spans FILE]

With ``--spans`` the jobs run traced and their spans are written to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def import_ansing():
    """Import the checkout's own package; never an installed copy."""
    sys.path.insert(0, str(SRC))
    import ansing.cli

    if Path(ansing.__file__).resolve().parent != SRC / "ansing":
        raise ImportError(f"imported ansing from {ansing.__file__}, not from {SRC}")
    return ansing.cli


def expand(argv: list[str], tmp: Path) -> list[str]:
    return [arg.replace("{tmp}", str(tmp)) for arg in argv]


def run_job(cli, argv: list[str], tmp: Path) -> dict:
    """Run one CLI invocation in-process, capturing what a user would see.

    An exception escaping ``cli.run`` is what a user sees as a traceback
    with exit status 1; it is recorded by type rather than re-raised.
    """
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(expand(argv, tmp) + ["--no-timestamp"])
        except Exception as exc:  # the job fails; the run goes on
            raised = type(exc).__name__
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "raised": raised}


def prepare(cli, plan, tmp: Path) -> None:
    """Write the plan's fixture files and run its set-up calls."""
    for name, text in plan.files.items():
        (tmp / name).write_text(text, encoding="utf-8")
    for argv in plan.setup:
        result = run_job(cli, argv, tmp)
        if result["code"] != 0:
            raise RuntimeError(f"set-up call {' '.join(argv)} failed: {result}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--spans", type=Path, help="trace the jobs and write their spans here")
    args = parser.parse_args()

    cli = import_ansing()
    sys.path.insert(0, str(BENCH))
    import jobs

    plan = jobs.plan(args.workload, args.seed)
    prepare(cli, plan, args.tmp)
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    results, latencies = [], []
    # time.monotonic is CLOCK_MONOTONIC on Linux, shared with the parent
    setup_s = time.monotonic() - args.spawned
    started = time.perf_counter()
    for index, job in enumerate(plan.jobs):
        if tracer:
            tracer.job = index
        t0 = time.perf_counter()
        results.append(run_job(cli, job["argv"], args.tmp))
        latencies.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": latencies,
        "results": results,
    }
    if tracer:
        tracer.uninstall()
        record["layers"] = tracer.metrics()
        tracer.write_spans(args.spans)
    args.out.write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    main()
