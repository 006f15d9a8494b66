"""Seeded job lists for the benchmark workloads.

A job is ``{"argv": [...], "expect": code}``: the arguments handed to
``ansing.cli.run`` and the exit code the CLI contract promises for them.
``{tmp}`` in an argument stands for the run's private temp directory, so a
job's text (and its reference digest) does not depend on where a run lives.

Every workload draws its parameters from a seed-specific ``random.Random``,
but the draw is stratified: the cost of a job list, and the shape of its
latency distribution, stay nearly the same from seed to seed while the
concrete (n, m) pairs, ranges and orders change.  That is what lets runs on
different seeds be compared against one bound.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep", "lattice", "verify", "sweep-cached")

CACHE_FILE = "{tmp}/rows.jsonl"


@dataclass
class Plan:
    """What one run of a workload does: fixtures, set-up calls, timed jobs."""

    jobs: list[dict]
    files: dict[str, str] = field(default_factory=dict)  # name -> text, under {tmp}
    setup: list[list[str]] = field(default_factory=list)  # CLI argv run before timing


def _job(*argv, expect: int = 0) -> dict:
    return {"argv": [str(a) for a in argv], "expect": expect}


def stratified(rng: random.Random, items: list, k: int, cost, weight=lambda item: 1.0) -> list:
    """k distinct items, one from each of k equal-weight strata by cost.

    Sorting the candidates by an estimated cost and drawing once per stratum,
    from the middle quarter of the stratum, keeps the total cost of the
    sample and its quantiles nearly constant across seeds while the items
    themselves still change with the seed.
    """
    ordered = sorted(items, key=cost)
    cumulative = list(itertools.accumulate(weight(item) for item in ordered))
    total = cumulative[-1]
    chosen: list = []
    taken: set[int] = set()
    for stratum in range(k):
        position = stratum + 0.5 + (rng.random() - 0.5) / 4
        idx = bisect.bisect_left(cumulative, position * total / k)
        idx = min(idx, len(ordered) - 1)
        if idx in taken:  # an item can straddle two strata: take the next free one
            idx = min(set(range(len(ordered))) - taken, key=lambda free: (abs(free - idx), free))
        taken.add(idx)
        chosen.append(ordered[idx])
    return chosen


# ---------------------------------------------------------------------------
# sweep: cyclotomic mu dominates
# ---------------------------------------------------------------------------

# Seconds the cyclotomic field of n costs (its set-up in Q(zeta_{n+1}) plus
# five mu evaluations), measured on a 2-core x86 machine under Python 3.11.
# Only the order matters: it decides which n's also run a sweep.
_FIELD_COST = {
    10: 0.074, 11: 0.021, 12: 0.13, 13: 0.046, 14: 0.06, 15: 0.051, 16: 0.134,
    17: 0.058, 18: 0.233, 19: 0.057, 20: 0.183, 21: 0.133, 22: 0.49, 23: 0.097,
    24: 0.40, 25: 0.22, 26: 0.30, 27: 0.23, 28: 1.12, 29: 0.28, 30: 0.97,
}
# every other n by cost also runs a 3-row sweep, every other sweep on a pool
_SWEPT = sorted(_FIELD_COST, key=_FIELD_COST.get, reverse=True)[::2]
_PARALLEL = _SWEPT[::2]


def _sweep_plan(rng: random.Random) -> Plan:
    """One block of jobs per n in 10..30, blocks in seeded order, as a user
    studying one singularity after another would issue them.

    Every seed pays for the same 21 cyclotomic fields and the same sweeps;
    the seed picks the degrees, the sweep ranges and the order.  Each block
    starts with a serial ``mu``, so the field is set up in the client before
    a forked sweep worker needs it, and sweep rows never coincide with the
    block's mu/h1 degree: which calls hit the lru cache is fixed by
    construction, not by the seeded order.
    """
    ns = list(_FIELD_COST)
    rng.shuffle(ns)
    # two of the three cheap verbs per block, each pair equally often, so the
    # cheap jobs that set the median latency have the same mix for every seed
    pairs = [("chi-orb", "hsum"), ("chi-orb", "omega"), ("hsum", "omega")] * (len(ns) // 3)
    rng.shuffle(pairs)
    jobs: list[dict] = []
    for n, verbs in zip(ns, pairs):
        start = rng.randrange(0, 31)
        m = rng.choice([m for m in range(33) if not start <= m <= start + 2])
        cheap = {
            "chi-orb": _job("chi-orb", "--n", n, "--m", rng.randrange(0, 33)),
            "hsum": _job("hsum", "--n", n, "--m", rng.randrange(0, 33)),
            "omega": _job("omega", "--n", n),
        }
        # h1 finds mu(n, m) in the lru cache
        rest = [_job("h1", "--n", n, "--m", m)] + [cheap[verb] for verb in verbs]
        if n in _SWEPT:
            pool = ["--parallel", 2] if n in _PARALLEL else []
            rest.append(_job("hsum-sweep", "--n", n, "--m-from", start, "--m-to", start + 2, *pool))
        rng.shuffle(rest)
        jobs += [_job("mu", "--n", n, "--m", m)] + rest
    # the small fields n = 8, 9 only ever appear in a sweep
    start = rng.randrange(0, 31)
    sweep = _job("hsum-sweep", "--n", rng.choice((8, 9)), "--m-from", start, "--m-to", start + 2)
    jobs.insert(rng.randrange(len(jobs) + 1), sweep)
    return Plan(jobs)


# ---------------------------------------------------------------------------
# lattice: hsum dominates, mu never runs
# ---------------------------------------------------------------------------


def _hsum_cost(nm: tuple[int, int]) -> float:
    # O(m^2) lattice points, each with an O(n) chart loop that stops at the cap
    n, m = nm
    return m * m * (3.5 + min(n, 12))


def _lattice_plan(rng: random.Random) -> Plan:
    # hsum with n 1..8 and log-uniform m: weight 1/m per integer m
    hsum_pool = [(n, m) for n in range(1, 9) for m in range(60, 321)]
    fresh = stratified(rng, hsum_pool, 30, _hsum_cost, weight=lambda nm: 1.0 / nm[1])
    repeats = [rng.choice(fresh) for _ in range(15)]  # lru hits, cross-checked
    check_pool = [(n, m) for n in range(2, 21) for m in range(50, 201)]
    checks = stratified(rng, check_pool, 6, _hsum_cost)
    # integral-check on pairs hsum already computed: hits, and a cross-verb check
    checks += rng.sample([nm for nm in fresh if nm[0] >= 2], 2)
    jobs = [_job("hsum", "--n", n, "--m", m) for n, m in fresh + repeats]
    jobs += [_job("integral-check", "--n", n, "--m", m) for n, m in checks]
    # the A_3 sequence has no period <= 12, so that fit ends in exit 3
    for n in (1, 2, 3):
        jobs.append(_job("fit", "--n", n, expect=3 if n == 3 else 0))
    rng.shuffle(jobs)
    return Plan(jobs)


# ---------------------------------------------------------------------------
# verify: Bareiss oracle plus many cheap verbs and the CLI's own overhead
# ---------------------------------------------------------------------------

# largest m per n for which hsum_oracle(n, m) stays near 0.35 s
ORACLE_M_CAP = {1: 18, 2: 16, 3: 15, 4: 14, 5: 14, 6: 14, 7: 14, 8: 14}

VALID_CONFIGS = 6

# Invalid inputs, as arguments and as bigness configs: each must exit 2 with
# a JSON error on stderr.  The last three configs are defects the CLI had
# when this benchmark was written (a traceback for "abc" and "1/0", and
# "n": true taken as n = 1); they stay so the defect shows as failed jobs
# until it is fixed.
INVALID_ARGV = [
    ["hsum", "--n", "0", "--m", "3"],
    ["mu", "--n", "3", "--m", "-1"],
    ["limits", "--n", "1"],
    ["hsum-sweep", "--n", "2", "--m-from", "5", "--m-to", "2"],
    ["fit", "--n", "2", "--degree", "-1"],
    ["oracle-verify", "--n", "2"],
    ["bigness"],
    ["bigness", "--config", "{tmp}/missing.json"],
]
INVALID_CONFIGS = {
    "not-json": "{s2: -1",
    "not-object": "[]",
    "type-d": json.dumps({"s2": "-1", "singularities": [{"type": "D", "n": 4, "count": 1}]}),
    "count-zero": json.dumps({"s2": "-1", "singularities": [{"n": 2, "count": 0}]}),
    "n-zero": json.dumps({"s2": "-1", "singularities": [{"n": 0, "count": 1}]}),
    "chern-mismatch": json.dumps({"s2": "1", "c1sq": "3", "c2": "1", "singularities": []}),
    "s2-abc": json.dumps({"s2": "abc", "singularities": [{"n": 1, "count": 2}]}),
    "s2-div-zero": json.dumps({"s2": "1/0", "singularities": [{"n": 1, "count": 2}]}),
    "n-true": json.dumps({"s2": "-1", "singularities": [{"n": True, "count": 1}]}),
}


def _valid_config(rng: random.Random, idx: int) -> str:
    singularities = [
        {"n": rng.randint(1, 12), "count": rng.randint(1, 20)} for _ in range(rng.randint(1, 3))
    ]
    config = {"name": f"surface-{idx}", "singularities": singularities}
    if idx % 2:
        config["c1sq"] = str(rng.randint(-20, 20))
        config["c2"] = f"{rng.randint(1, 40)}/{rng.randint(1, 5)}"
    else:
        config["s2"] = f"{rng.randint(-60, 10)}/{rng.randint(1, 7)}"
    return json.dumps(config)


def _verify_plan(rng: random.Random) -> Plan:
    oracle_pool = [(n, m) for n, cap in ORACLE_M_CAP.items() for m in range(1, cap + 1)]
    oracle_cost = lambda nm: 1.38 ** nm[1] * (4 + nm[0])  # noqa: E731 - rough; only the order matters
    jobs = [_job("oracle-verify", "--n", n, "--m", m) for n, m in stratified(rng, oracle_pool, 18, oracle_cost)]
    for _ in range(14):
        jobs.append(_job("divisor", "--n", rng.randint(1, 30), "--m", rng.randint(0, 60)))
        jobs.append(_job("polygon", "--n", rng.randint(1, 10), "--m", rng.randint(0, 40)))
    for _ in range(12):
        jobs.append(_job("omega", "--n", rng.randint(1, 50)))
        jobs.append(_job("chi-orb", "--n", rng.randint(1, 50), "--m", rng.randint(0, 60)))
    limits = stratified(rng, list(range(2, 2001)), 12, lambda n: n, weight=lambda n: 1.0 / n)
    jobs += [_job("limits", "--n", n) for n in limits]
    # a config is named by its content, so the job's text identifies its output
    valid = [_valid_config(rng, i) for i in range(VALID_CONFIGS)]
    files = {f"valid-{hashlib.sha256(text.encode()).hexdigest()[:12]}.json": text for text in valid}
    names = list(files)
    for i in range(16):
        jobs.append(_job("bigness", "--config", f"{{tmp}}/{names[i % VALID_CONFIGS]}"))
    for name, text in INVALID_CONFIGS.items():
        files[f"{name}.json"] = text
        jobs.append(_job("bigness", "--config", f"{{tmp}}/{name}.json", expect=2))
    jobs += [_job(*argv, expect=2) for argv in INVALID_ARGV]
    rng.shuffle(jobs)
    return Plan(jobs, files=files)


# ---------------------------------------------------------------------------
# sweep-cached: the append-only sweep cache, reads beside writes
# ---------------------------------------------------------------------------

CACHED_NS = (1, 2, 3, 4, 5, 6)
PREFILL_ROWS = 50  # per n, so the file starts with several hundred rows
CACHED_SWEEPS = 60


def _cached_plan(rng: random.Random) -> Plan:
    """Overlapping sweeps that each end one row past the cached frontier.

    Every sweep re-reads the whole cache, serves ~90% of its rows from it
    (lengths 6..14, one new row each) and appends the one it computes, so
    the file grows while it is read.
    """
    setup = [
        ["hsum-sweep", "--n", str(n), "--m-from", "0", "--m-to", str(PREFILL_ROWS - 1), "--cache", CACHE_FILE]
        for n in CACHED_NS
    ]
    order = [n for n in CACHED_NS for _ in range(CACHED_SWEEPS // len(CACHED_NS))]
    rng.shuffle(order)
    frontier = dict.fromkeys(CACHED_NS, PREFILL_ROWS)
    jobs = []
    for n in order:
        length = rng.randint(6, 14)
        top = frontier[n]
        jobs.append(_job("hsum-sweep", "--n", n, "--m-from", top - length + 1, "--m-to", top, "--cache", CACHE_FILE))
        frontier[n] = top + 1
    return Plan(jobs, setup=setup)


_PLANS = {
    "sweep": _sweep_plan,
    "lattice": _lattice_plan,
    "verify": _verify_plan,
    "sweep-cached": _cached_plan,
}


def plan(workload: str, seed: int) -> Plan:
    """The deterministic plan of ``workload`` for ``seed``."""
    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _PLANS[workload](random.Random(f"{workload}:{seed}"))
