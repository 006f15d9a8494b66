"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import child  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

cli = child.import_ansing()


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_plan_is_deterministic_per_seed(workload):
    assert jobs.plan(workload, 3) == jobs.plan(workload, 3)
    assert jobs.plan(workload, 3).jobs != jobs.plan(workload, 4).jobs


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_a_run_puts_ten_jobs_beyond_p90(workload):
    # p90 is taken over every job of a run, which has at least MIN_CHILDREN children
    latencies = list(range(run.MIN_CHILDREN * len(jobs.plan(workload, 0).jobs)))
    assert sum(1 for x in latencies if x > run.percentile(latencies, 0.9)) >= 10


def test_verify_keeps_the_known_defect_configs():
    argvs = {" ".join(job["argv"]): job["expect"] for job in jobs.plan("verify", 0).jobs}
    for name in ("s2-abc", "s2-div-zero"):
        assert argvs[f"bigness --config {{tmp}}/{name}.json"] == 2


def test_stratified_draws_distinct_items_one_per_stratum():
    import random

    items = list(range(100))
    chosen = jobs.stratified(random.Random(1), items, 10, cost=lambda x: x)
    assert len(set(chosen)) == 10
    assert [x // 10 for x in chosen] == list(range(10))


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 6.0, 7.0, 2, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_summary_does_not_count_nested_same_name_twice():
    spans = [["x", 0.0, 10.0, -1, 0], ["x", 2.0, 5.0, 0, 0], ["y", 6.0, 8.0, 0, 0]]
    summary = tracing.summarize(spans)
    assert summary["x"] == {"calls": 2, "s": 10.0, "self_s": 5.0 + 3.0}
    assert summary["y"] == {"calls": 1, "s": 2.0, "self_s": 2.0}


def test_tracer_wraps_every_namespace_and_restores_them(tmp_path):
    import ansing
    from ansing import invariants, latticesum

    original = latticesum.hsum
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert invariants.hsum is latticesum.hsum is ansing.hsum is not original
        tracer.job = 7
        result = child.run_job(cli, ["h1", "--n", "3", "--m", "4"], tmp_path)
    finally:
        tracer.uninstall()
    assert result["code"] == 0
    assert invariants.hsum is latticesum.hsum is ansing.hsum is original
    names = {span[0]: span for span in tracer.spans}
    root = tracer.spans.index(names["cli.run"])
    assert names["invariants.mu"][3] != -1 and names["cli.build_parser"][3] == root
    assert {span[4] for span in tracer.spans} == {7}
    metrics = tracer.metrics()
    assert metrics["invariants.mu.calls"] >= 1 and metrics["cli.run.self_s"] > 0


def _run(argvs, tmp_path):
    plan = [{"argv": argv, "expect": 0} for argv in argvs]
    return plan, [child.run_job(cli, job["argv"], tmp_path) for job in plan]


def test_check_accepts_consistent_outputs(tmp_path):
    plan, results = _run([["hsum", "--n", "2", "--m", "6"], ["h1", "--n", "2", "--m", "6"]], tmp_path)
    assert checks.check_run(plan, results, {}) == []


def test_check_catches_a_corrupted_output(tmp_path):
    plan, results = _run(
        [["hsum", "--n", "2", "--m", "6"], ["oracle-verify", "--n", "2", "--m", "6"]], tmp_path
    )
    reference = {checks.job_key(job): checks.digest(r["stdout"]) for job, r in zip(plan, results)}
    assert checks.check_run(plan, results, reference) == []
    results[0]["stdout"] = results[0]["stdout"].replace('"hsum": 44', '"hsum": 45')
    # caught by the reference digest, and without one by the cross-verb check
    for ref in (reference, {}):
        problems = checks.check_run(plan, results, ref)
        assert problems and all(p.wrong_answer for p in problems)
        assert 0 in {p.job for p in problems}


def test_check_counts_contract_breaches_as_failed_not_wrong():
    plan = [{"argv": ["bigness", "--config", "{tmp}/bad.json"], "expect": 2}]
    rejected = {"code": 2, "stdout": "", "stderr": '{"error": "bad s2"}\n', "raised": None}
    assert checks.check_run(plan, [rejected], {}) == []
    for result in (
        {"code": None, "stdout": "", "stderr": "", "raised": "ValueError"},
        {"code": 0, "stdout": "{}", "stderr": "", "raised": None},
        {"code": 2, "stdout": "", "stderr": "usage: ansing ...", "raised": None},
    ):
        (problem,) = checks.check_run(plan, [result], {})
        assert not problem.wrong_answer


def test_check_counts_a_failed_self_verification_as_a_wrong_answer(tmp_path, monkeypatch):
    from fractions import Fraction

    from ansing import invariants, latticesum, oracle

    monkeypatch.setattr(oracle, "hsum_oracle", lambda n, m: latticesum.hsum(n, m) + 1)
    monkeypatch.setattr(invariants, "h1", lambda n, m: Fraction(-1, 2))
    plan, results = _run([["oracle-verify", "--n", "2", "--m", "6"], ["h1", "--n", "2", "--m", "6"]], tmp_path)
    assert [r["code"] for r in results] == [3, 3]
    problems = checks.check_run(plan, results, {})
    assert [p.job for p in problems] == [0, 1] and all(p.wrong_answer for p in problems)
    assert "does not report a match" in problems[0].reason
    assert "nonnegative integer" in problems[1].reason


def test_check_counts_a_missing_verification_failure_as_a_wrong_answer():
    plan = [{"argv": ["fit", "--n", "3"], "expect": 3}]
    fitted = {"code": 0, "stdout": '{"n": 3, "period": 1, "branches": [["1"]]}\n', "stderr": "", "raised": None}
    (problem,) = checks.check_run(plan, [fitted], {})
    assert problem.wrong_answer and problem.reason.startswith("exit 0, expected 3")
