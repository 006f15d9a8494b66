"""Mutation checks, re-runnable: each mutant is one exact source replacement
in a copy of the package, and the named test files must kill it.

Run from anywhere as ``python tests/mutants.py``.  Stdlib only (pytest runs
the tests); pytest does not collect this file.  The script copies ``src/``
and ``tests/`` into a temporary directory, never touching the checkout, and
first runs the union of the named test files on the unmutated copy, which
must pass.  Then, one mutant at a time, it applies the replacement to the
copy, runs that mutant's test files, restores the file and prints one JSON
line: the mutant's name, file, expected and observed outcome (``killed`` or
``survived``), the first failing test, and the seconds taken.  A ``killed``
mutant is expected to fail a test; a ``known-gap`` mutant is one no test
catches yet, expected to survive.  The exit status is 1 if any mutant's
outcome differs from its expectation.

``tests/test_mutants.py`` checks in tier-1 that every ``old`` text occurs
exactly once in its file, so a refactor has to update this list.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/ansing
    old: str
    new: str
    tests: tuple[str, ...]  # under tests/
    expect: str  # "killed" or "known-gap"


ORACLE_TESTS = ("test_oracle.py",)
RANK_TESTS = ("test_oracle.py", "test_oracle_property.py")
ASYMPTOTICS_TESTS = ("test_asymptotics.py",)
MU_TESTS = ("test_invariants.py", "test_acceptance.py")
LATTICE_TESTS = ("test_latticesum.py",)

MUTANTS = (
    # the shared-basis oracle
    Mutant(
        "oracle-restart-guard-dropped",
        "oracle.py",
        "            if any(map(operator.lt, interior, done)):\n",
        "            if False:\n",
        ORACLE_TESTS,
        "killed",
    ),
    Mutant(
        "oracle-certificate-against-rows-alone",
        "oracle.py",
        "    if rank_p == min(rows, high - low):\n",
        "    if rank_p == rows:\n",
        ORACLE_TESTS,
        "killed",
    ),
    Mutant(
        "oracle-each-tuple-counted-once",
        "oracle.py",
        "            total += counts[orders] * _certified(",
        "            total += _certified(",
        ORACLE_TESTS,
        "killed",
    ),
    Mutant(
        "oracle-insertion-stops-at-cols-minus-one",
        "oracle.py",
        "                    if len(basis) == high - low:\n",
        "                    if len(basis) == high - low - 1:\n",
        ORACLE_TESTS,
        "killed",
    ),
    # rank on the _insert basis
    Mutant(
        "rank-returns-mod-p-rank",
        "oracle.py",
        "    return _rank_bareiss(matrix, ncols)\n",
        "    return len(basis)\n",
        RANK_TESTS,
        "killed",
    ),
    Mutant(
        "rank-bound-counts-zero-rows",
        "oracle.py",
        "    bound = min(len(matrix), ncols)\n",
        "    bound = min(len(rows), ncols)\n",
        RANK_TESTS,
        "killed",
    ),
    Mutant(
        "insert-reduces-against-last-basis-row",
        "oracle.py",
        "    for col, pivot_row in basis:\n",
        "    for col, pivot_row in basis[-1:]:\n",
        RANK_TESTS,
        "killed",
    ),
    # the polygon pieces in integer triples and their integral
    Mutant(
        "integral-cube-of-scale-squared",
        "asymptotics.py",
        "    return accumulated, 6 * scale**3 * wscale\n",
        "    return accumulated, 6 * scale**2 * wscale\n",
        ASYMPTOTICS_TESTS,
        "killed",
    ),
    Mutant(
        "integral-orientation-flip-dropped",
        "asymptotics.py",
        "    if doubled_area < 0:\n        accumulated = -accumulated\n",
        "",
        ASYMPTOTICS_TESTS,
        "killed",
    ),
    Mutant(
        "clip-crossing-denominator-sign-flipped",
        "asymptotics.py",
        "            q = x1 * q2 - x2 * q1\n",
        "            q = x2 * q1 - x1 * q2\n",
        ASYMPTOTICS_TESTS,
        "killed",
    ),
    Mutant(
        "vertex-reduction-skips-q",
        "asymptotics.py",
        "    return x // g, y // g, q // g\n",
        "    return x // g, y // g, q\n",
        ASYMPTOTICS_TESTS,
        "killed",
    ),
    # upper_integral's closed form and its guard.  The guard m * n < 3 is an
    # equivalent mutant, not listed: at n m = 2 the closed form and the piece
    # sum agree
    Mutant(
        "upper-integral-cube-of-m",
        "asymptotics.py",
        "(m + 1) ** 3",
        "m ** 3",
        ASYMPTOTICS_TESTS,
        "killed",
    ),
    Mutant(
        "upper-integral-strip-over-2n",
        "asymptotics.py",
        "Fraction(m + 1, 2 * (n + 1))",
        "Fraction(m + 1, 2 * n)",
        ASYMPTOTICS_TESTS,
        "killed",
    ),
    Mutant(
        "upper-integral-guard-misses-n-m-one",
        "asymptotics.py",
        "    if m * n < 2:\n",
        "    if m * n < 1:\n",
        ASYMPTOTICS_TESTS,
        "killed",
    ),
    # the cubic rates: the exact Basel pairs, the rate's one fraction and the
    # bigness criterion's weighted sum
    Mutant(
        "basel-scale-skips-gcd",
        "asymptotics.py",
        "        scale = square // gcd(den, square)\n",
        "        scale = square\n",
        ASYMPTOTICS_TESTS,
        "killed",
    ),
    Mutant(
        "basel-adds-one-over-j",
        "asymptotics.py",
        "        num += den // square\n",
        "        num += den // j\n",
        ("test_rates.py", "test_invariants.py", "test_bigness.py", "test_asymptotics.py", "test_acceptance.py"),
        "killed",
    ),
    Mutant(
        "rate-rational-part-over-basel-numerator",
        "asymptotics.py",
        "3 * num * q, 3 * q * den)",
        "3 * num * p, 3 * q * den)",
        # test_bigness.py misses it: its expected sums come from h1_omega, on the same _rate
        ("test_rates.py", "test_invariants.py", "test_asymptotics.py", "test_acceptance.py"),
        "killed",
    ),
    Mutant(
        "h1-omega-sum-drops-count",
        "asymptotics.py",
        "sum((count * _rate(_h1_terms(n), basel[n])",
        "sum((_rate(_h1_terms(n), basel[n])",
        ("test_bigness.py", "test_asymptotics.py", "test_acceptance.py"),
        "killed",
    ),
    # hsum's row formula and its residue-class sums.  Two neighbours of these
    # are equivalent, not listed: the span = m + 2 row moved into the lower
    # side, and the zero-clip start high - m lowered by one (both change only
    # terms that are exactly 0)
    Mutant(
        "hsum-class-period-one",
        "latticesum.py",
        "        period = 2  # low and s are linear on each class of a mod 2\n",
        "        period = 1\n",
        LATTICE_TESTS,
        "killed",
    ),
    Mutant(
        "hsum-class-sum-cubic-binomial-as-pairs",
        "latticesum.py",
        "size * (size - 1) * (size - 2) // 6",
        "size * (size - 1) // 2",
        LATTICE_TESTS,
        "killed",
    ),
    Mutant(
        "hsum-lower-side-ends-one-row-late",
        "latticesum.py",
        "    lower = m1 // n1  #",
        "    lower = m1 // n1 + 1  #",
        LATTICE_TESTS,
        "killed",
    ),
    Mutant(
        "hsum-lower-side-ends-one-row-early",
        "latticesum.py",
        "    lower = m1 // n1  #",
        "    lower = m1 // n1 - 1  #",
        LATTICE_TESTS,
        "killed",
    ),
    Mutant(
        "hsum-class-groups-swapped",
        "latticesum.py",
        "((full + 1, 0, extra), (full, extra, period))",
        "((full, 0, extra), (full + 1, extra, period))",
        LATTICE_TESTS,
        "killed",
    ),
    Mutant(
        "hsum-crossing-s-plus-one",
        "latticesum.py",
        "                s = (m1 - a * tri) // slope\n",
        "                s = (m1 - a * tri) // slope + 1\n",
        LATTICE_TESTS,
        "killed",
    ),
    Mutant(
        "hsum-crossing-s-minus-one",
        "latticesum.py",
        "                s = (m1 - a * tri) // slope\n",
        "                s = (m1 - a * tri) // slope - 1\n",
        LATTICE_TESTS,
        "killed",
    ),
    Mutant(
        "hsum-zero-clip-start-plus-one",
        "latticesum.py",
        "positive_from = high - m if high > m else 0\n",
        "positive_from = high - m + 1 if high > m else 0\n",
        LATTICE_TESTS,
        "killed",
    ),
    Mutant(
        "hsum-zero-clip-start-minus-one-at-zero",
        "latticesum.py",
        "positive_from = high - m if high > m else 0\n",
        "positive_from = high - m if high > m else -1\n",
        LATTICE_TESTS,
        "killed",
    ),
    # mu's closed Fourier-Dedekind sum
    Mutant(
        "mu-class-count-plus-two",
        "invariants.py",
        "        count = (m - q) // order + 1",
        "        count = (m - q) // order + 2",
        MU_TESTS,
        "killed",
    ),
    Mutant(
        "mu-dedekind-term-sign-flipped",
        "invariants.py",
        " - 6 * k * (order - k))",
        " + 6 * k * (order - k))",
        MU_TESTS,
        "killed",
    ),
    # h1 has no exact check past the cyclotomic oracle's range
    Mutant(
        "h1-plus-one-at-m-divisible-by-5",
        "invariants.py",
        "    return mu(n, m) - chi_orb(n, m) - hsum(n, m)\n",
        "    return mu(n, m) - chi_orb(n, m) - hsum(n, m) + (m >= 7 and m % 5 == 0)\n",
        ("test_invariants.py", "test_acceptance.py", "test_cli.py", "test_rates.py"),
        "known-gap",
    ),
)


def mutated(mutant: Mutant, source: str) -> str:
    """The source with the mutant's one occurrence of old replaced by new."""
    if source.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {source.count(mutant.old)} times in {mutant.file}")
    return source.replace(mutant.old, mutant.new)


def run_tests(work: Path, tests) -> tuple[int, str | None]:
    """Run the test files on the copy in work; the exit code and the first
    failing test, if any."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider"]
    result = subprocess.run(
        command + [f"tests/{name}" for name in tests], cwd=work, env=env, capture_output=True, text=True
    )
    failed = re.search(r"^FAILED (\S+)", result.stdout, re.M)
    return result.returncode, failed and failed[1]


def main() -> int:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    with tempfile.TemporaryDirectory(prefix="ansing-mutants-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
        shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
        code, failed = run_tests(work, sorted({name for mutant in MUTANTS for name in mutant.tests}))
        if code != 0:
            raise SystemExit(f"the unmutated copy fails its tests (exit {code}, first {failed})")
        mismatches = 0
        for mutant in MUTANTS:
            target = work / "src" / "ansing" / mutant.file
            source = target.read_text(encoding="utf-8")
            target.write_text(mutated(mutant, source), encoding="utf-8")
            start = time.perf_counter()
            code, failed = run_tests(work, mutant.tests)
            target.write_text(source, encoding="utf-8")
            outcome = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            expected = outcome == ("killed" if mutant.expect == "killed" else "survived")
            mismatches += not expected
            print(
                json.dumps(
                    {
                        "name": mutant.name,
                        "file": f"src/ansing/{mutant.file}",
                        "expect": mutant.expect,
                        "outcome": outcome,
                        "as_expected": expected,
                        "first_failure": failed,
                        "seconds": round(time.perf_counter() - start, 1),
                    }
                ),
                flush=True,
            )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
