"""Output checks for benchmark jobs.

Every job is held to the CLI contract: the exit code its input calls for,
and for invalid input an empty stdout with a JSON ``{"error": ...}`` on
stderr.  Jobs that succeed are then checked for the right answer:

* against ``reference/<workload>.json``, the stdout digests recorded for the
  default seeds (0-9), wherever the job's text appears there;
* by self-checks that hold for any seed: ``oracle-verify`` reports a match,
  ``h1`` reports an integral nonnegative value equal to mu - chi_orb - hsum,
  sweep rows obey the same identity, integral checks their residual, and
  every verb reports the same hsum, mu and chi_orb for the same (n, m)
  within a run; a fitted quasi-polynomial reproduces every hsum(n, m) the
  run saw for its n.

A job *fails* if it raises, exits with an unexpected code or fails a check.
A failure is a *wrong answer* when the job printed something incorrect, or
exited 3 (the CLI's verification failure) where 0 was due or the reverse;
only wrong answers make a run incorrect.  The output of a job that exits 3
where 0 was due still goes through the checks above, so a mismatching
``oracle-verify`` or a fractional ``h1`` is named as such.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Problem:
    job: int
    reason: str
    wrong_answer: bool


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()[:16]


def job_key(job: dict) -> str:
    return " ".join(job["argv"])


def load_reference(workload: str) -> dict[str, str]:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def _flag(argv: list[str], name: str) -> int | None:
    return int(argv[argv.index(name) + 1]) if name in argv else None


def _is_json_error(stderr: str) -> bool:
    try:
        payload = json.loads(stderr)
    except json.JSONDecodeError:
        return False
    return isinstance(payload, dict) and isinstance(payload.get("error"), str)


def _identity_holds(record: dict) -> bool:
    """h1 = mu - chi_orb - hsum, and h1 is a nonnegative integer."""
    h1 = Fraction(record["h1"])
    expected = Fraction(record["mu"]) - Fraction(record["chi_orb"]) - record["hsum"]
    return h1 == expected and h1.denominator == 1 and h1 >= 0


class _Observations:
    """Values seen for one (quantity, n, m), with the jobs that reported them."""

    def __init__(self) -> None:
        self.seen: dict[tuple, dict[str, list[int]]] = defaultdict(lambda: defaultdict(list))

    def add(self, quantity: str, n: int, m: int, value, job: int) -> None:
        self.seen[(quantity, n, m)][str(value)].append(job)

    def values(self, quantity: str) -> dict[tuple[int, int], Fraction]:
        return {
            (n, m): Fraction(next(iter(by_value)))
            for (q, n, m), by_value in self.seen.items()
            if q == quantity and len(by_value) == 1
        }

    def conflicts(self):
        for (quantity, n, m), by_value in self.seen.items():
            if len(by_value) > 1:
                yield quantity, n, m, by_value


def _check_payload(verb: str, argv: list[str], payload: dict, index: int, obs: _Observations, fits: dict) -> str | None:
    """Verb-specific self-check of a successful job; returns a reason or None."""
    n, m = _flag(argv, "--n"), _flag(argv, "--m")
    if verb == "hsum":
        obs.add("hsum", n, m, payload["hsum"], index)
    elif verb == "mu":
        obs.add("mu", n, m, payload["mu"], index)
    elif verb == "chi-orb":
        obs.add("chi_orb", n, m, payload["chi_orb"], index)
    elif verb == "oracle-verify":
        obs.add("hsum", n, m, payload["formula"], index)
        if not (payload["match"] is True and payload["formula"] == payload["oracle"]):
            return "oracle-verify does not report a match"
    elif verb == "integral-check":
        obs.add("hsum", n, m, payload["hsum"], index)
        if Fraction(payload["residual"]) != payload["hsum"] - Fraction(payload["integral"]):
            return "integral-check residual != hsum - integral"
    elif verb == "h1":
        for quantity in ("hsum", "mu", "chi_orb"):
            obs.add(quantity, n, m, payload[quantity], index)
        if payload["integral_and_nonnegative"] is not True or not _identity_holds(payload):
            return "h1 is not mu - chi_orb - hsum as a nonnegative integer"
    elif verb == "hsum-sweep":
        m_from, m_to = _flag(argv, "--m-from"), _flag(argv, "--m-to")
        if [row["m"] for row in payload["rows"]] != list(range(m_from, m_to + 1)):
            return "sweep rows do not cover --m-from..--m-to in order"
        for row in payload["rows"]:
            for quantity in ("hsum", "mu", "chi_orb"):
                obs.add(quantity, n, row["m"], row[quantity], index)
            if not _identity_holds(row):
                return f"sweep row m={row['m']} breaks h1 = mu - chi_orb - hsum"
    elif verb == "fit":
        fits[index] = (n, payload["period"], [[Fraction(c) for c in b] for b in payload["branches"]])
    elif verb == "bigness":
        total = Fraction(payload["localized"]) + Fraction(payload["chern_term"])
        if Fraction(payload["total"]) != total or (payload["verdict"] == "inconclusive") != (total <= 0):
            return "bigness total or verdict is inconsistent"
    elif verb == "divisor":
        if payload["coefficients"] != payload["coefficients"][::-1]:
            return "divisor coefficients are not symmetric"
    return None


def check_run(jobs: list[dict], results: list[dict], reference: dict[str, str]) -> list[Problem]:
    """All problems found in one run's results, in job order."""
    problems: list[Problem] = []
    obs = _Observations()
    fits: dict[int, tuple] = {}
    for index, (job, result) in enumerate(zip(jobs, results)):
        argv, expect = job["argv"], job["expect"]
        if result["raised"]:
            problems.append(Problem(index, f"raised {result['raised']}", False))
            continue
        code = result["code"]
        # exit 0 against 3 is a verdict on the answer: the program passed or
        # failed its own verification where the other was due
        if code != expect and {code, expect} != {0, 3}:
            problems.append(Problem(index, f"exit {code}, expected {expect}", False))
            continue
        if expect == 2:
            if result["stdout"] or not _is_json_error(result["stderr"]):
                problems.append(Problem(index, "invalid input without a JSON error", False))
            continue
        wanted = reference.get(job_key(job))
        if wanted is not None and digest(result["stdout"]) != wanted:
            problems.append(Problem(index, "stdout differs from the reference", True))
            continue
        if code == expect == 3:  # a verification failure the input calls for
            if result["stdout"] or not _is_json_error(result["stderr"]):
                problems.append(Problem(index, "exit 3 without a JSON error", True))
            continue
        try:
            reason = _check_payload(argv[0], argv, json.loads(result["stdout"]), index, obs, fits)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if code != expect:
            reason = f"exit {code}, expected {expect}" + (f": {reason}" if reason else "")
        if reason:
            problems.append(Problem(index, reason, True))

    for quantity, n, m, by_value in obs.conflicts():
        jobs_involved = sorted(j for group in by_value.values() for j in group)
        for j in jobs_involved:
            problems.append(Problem(j, f"{quantity}({n}, {m}) differs between jobs {jobs_involved}", True))
    hsums = obs.values("hsum")
    for index, (n, period, branches) in fits.items():
        for (hn, m), value in hsums.items():
            if hn == n and sum(c * m**k for k, c in enumerate(branches[m % period])) != value:
                problems.append(Problem(index, f"fit for n={n} misses hsum({n}, {m})", True))
                break
    return sorted(problems, key=lambda p: p.job)
