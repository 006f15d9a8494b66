"""Command-line surface: one verb per computation, JSON (default) or CSV out.

Exit codes: 0 success, 2 invalid input, 3 verification failure (formula vs
oracle mismatch, integrality failure, or an unfittable sequence).  Every
exit 2, a usage error included, prints one JSON object {"error": ...} on
stderr and nothing on stdout.  Each verb accepts only the flags it reads.
Verification verbs exit nonzero on mismatch so CI can gate on them.
Rationals are serialized as "p/q" everywhere, timestamps are suppressed with
--no-timestamp, and sweeps can persist rows in an append-only checksummed
cache.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import io
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import asymptotics, bigness, extension, invariants, latticesum, oracle, quasifit
from .exactmath import format_rational
from .quasifit import InsufficientSamplesError, NoPeriodFitsError


class CliInputError(ValueError):
    pass


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CliInputError(message)


# ---------------------------------------------------------------------------
# sweep rows and cache
# ---------------------------------------------------------------------------


def _sweep_row(n: int, m: int) -> dict:
    mu, chi, hsum = invariants.mu(n, m), invariants.chi_orb(n, m), latticesum.hsum(n, m)
    return {
        "m": m,
        "hsum": hsum,
        "mu": format_rational(mu),
        "chi_orb": format_rational(chi),
        "h1": format_rational(mu - chi - hsum),
    }


_ROW_FIELDS = ("m", "hsum", "mu", "chi_orb", "h1")


# A cache line is exactly what `_append_cache` writes,
#     {"checksum":"<64 hex digits>",  followed by  canonical[1:]
# where canonical, the text the checksum hashes, is {"n":<n>,"row":{...}}
# with sorted keys and no spaces.  A line in any other layout is not served.
_HEAD = b'{"checksum":"'
_DIGEST = slice(len(_HEAD), len(_HEAD) + 64)
_BODY = _DIGEST.stop + 2  # canonical[1:] starts behind the '",'
_ROW_M = re.compile(rb',"m":(\d+),')


def _cache_error(path: Path, exc: OSError) -> CliInputError:
    return CliInputError(f"cannot use --cache {path}: {exc.strerror or exc}")


def _load_cache(path: Path, n: int, wanted: range) -> dict[int, dict]:
    """The verified rows of `n` whose m is in `wanted`, keyed by m.

    Only lines in the writer's layout, for this n and a wanted m, are
    hashed and parsed.  A line that fails is skipped, so its row is
    recomputed.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return {}
    except OSError as exc:
        raise _cache_error(path, exc) from exc
    key = b'"n":%d,"row":' % n
    rows: dict[int, dict] = {}
    for line in data.splitlines():
        if not (
            line.startswith(key, _BODY)
            and line.startswith(_HEAD)
            and line[_DIGEST.stop : _BODY] == b'",'
        ):
            continue
        found = _ROW_M.search(line, _BODY + len(key))
        try:
            if found is None or int(found[1]) not in wanted:
                continue
            canonical = b"{" + line[_BODY:]
            if hashlib.sha256(canonical).hexdigest().encode("ascii") != line[_DIGEST]:
                continue  # corrupted row: recompute
            row = json.loads(canonical)["row"]
            # normalize key order: the cache serializes rows with sorted keys
            rows[row["m"]] = {field: row[field] for field in _ROW_FIELDS}
        except (ValueError, KeyError, TypeError):
            continue  # unreadable line: recompute
    return rows


def _append_cache(path: Path, n: int, rows: list[dict]) -> None:
    """Append one line per row with a single write under O_APPEND, behind a
    newline if the file ends in a line a killed writer left unfinished."""
    lines = []
    for row in rows:
        canonical = json.dumps({"n": n, "row": row}, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        lines.append(f'{{"checksum":"{digest}",{canonical[1:]}\n')
    batch = "".join(lines).encode("utf-8")
    try:
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            end = os.lseek(fd, 0, os.SEEK_END)
            if end:
                os.lseek(fd, end - 1, os.SEEK_SET)
                if os.read(fd, 1) != b"\n":
                    batch = b"\n" + batch
            while batch:  # a regular file takes it all at once unless the disk fills
                batch = batch[os.write(fd, batch) :]
        finally:
            os.close(fd)
    except OSError as exc:
        raise _cache_error(path, exc) from exc


def sweep(
    n: int,
    m_from: int,
    m_to: int,
    parallel: int = 1,
    cache_path: Path | None = None,
) -> list[dict]:
    """Rows {m, hsum, mu, chi_orb, h1} for m_from..m_to, ordered by m.

    Missing rows are computed in the calling process; `parallel` is accepted
    and ignored, as a row costs less than starting a worker process would.
    """
    wanted = range(m_from, m_to + 1)
    cached = _load_cache(cache_path, n, wanted) if cache_path else {}
    rows = {m: cached[m] for m in wanted if m in cached}
    missing = [m for m in wanted if m not in rows]
    if missing:
        computed = [_sweep_row(n, m) for m in missing]
        for row in computed:
            rows[row["m"]] = row
        if cache_path:
            _append_cache(cache_path, n, computed)
    return [rows[m] for m in wanted]


def __getattr__(name: str):
    # Exists only for bench/tracing.py, which subclasses the pool sweeps no longer
    # use; imported on request, off start-up.  ROADMAP A's stats hook deletes it.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# verb handlers: each returns (payload, exit_code)
# ---------------------------------------------------------------------------


# Input bounds.  Each is sized so that the slowest call it admits takes
# about 1.6 s or less on a 2-core x86 machine under Python 3.11: h1 at
# --n 1000000 --m 1000000, a sweep from 0 to --m-to 1500, fit --n 4
# --degree 20 --max-period 40 --m-to 1500, integral-check --n 1000
# --m 1000000, divisor --n 1000000 --m 1000000, polygon --n 10000
# --m 1000000, limits --n 100000.  oracle-verify --n 16 --m 30 takes about
# 0.5 s in a fresh process, 0.36 s of it in the oracle's modular ranks.
M_LIMIT = 1_000_000  # --m of every verb that takes one, except oracle-verify
N_LIMIT = 1_000_000  # --n of every verb without its own bound below: mu's cost grows with it
M_TO_LIMIT = 1500  # --m-to of fit and hsum-sweep: hsum at every m up to it
DEGREE_LIMIT = 20
MAX_PERIOD_LIMIT = 40
ORACLE_N_LIMIT = 16  # oracle-verify: exact ranks block by block, a cost
ORACLE_M_LIMIT = 30  # that grows polynomially in both n and m
INTEGRAL_N_LIMIT = 1000  # integral-check: exact integrals over n + 2 pieces
POLYGON_N_LIMIT = 10_000  # polygon: n + 2 pieces, each with exact vertices
LIMITS_N_LIMIT = 100_000  # limits: a growth step of h1_omega at every n up to it
# omega: past it the exact rates' numerators exceed CPython's 4300-digit
# int-to-str limit, so they could not be printed
OMEGA_N_LIMIT = 4964


def _need_n(args, n_limit: int = N_LIMIT) -> int:
    _require(args.n is not None and args.n >= 1, "--n must be an integer >= 1")
    _require(args.n <= n_limit, f"--n must be <= {n_limit}")
    return args.n


def _need_nm(args, m_limit: int = M_LIMIT, n_limit: int = N_LIMIT) -> tuple[int, int]:
    n = _need_n(args, n_limit)
    _require(args.m is not None and args.m >= 0, "--m must be an integer >= 0")
    _require(args.m <= m_limit, f"--m must be <= {m_limit}")
    return n, args.m


def _cmd_hsum(args):
    n, m = _need_nm(args)
    return {"n": n, "m": m, "hsum": latticesum.hsum(n, m)}, 0


def _cmd_sweep(args):
    _need_n(args)
    _require(args.m_from is not None and args.m_from >= 0, "--m-from must be >= 0")
    _require(args.m_to is not None and args.m_to >= -1, "--m-to must be >= -1")
    _require(args.m_to <= M_TO_LIMIT, f"--m-to must be <= {M_TO_LIMIT}")
    _require(args.m_from <= args.m_to + 1, "--m-from must be <= --m-to + 1")
    _require(args.parallel >= 1, "--parallel must be >= 1")
    cache_path = Path(args.cache) if args.cache else None
    rows = sweep(args.n, args.m_from, args.m_to, args.parallel, cache_path)
    return {"n": args.n, "rows": rows}, 0


def _cmd_oracle_verify(args):
    n, m = _need_nm(args, ORACLE_M_LIMIT, ORACLE_N_LIMIT)
    formula = latticesum.hsum(n, m)
    brute = oracle.hsum_oracle(n, m)
    match = formula == brute
    return {"n": n, "m": m, "formula": formula, "oracle": brute, "match": match}, (
        0 if match else 3
    )


def _cmd_omega(args):
    _need_n(args, OMEGA_N_LIMIT)
    return {
        "n": args.n,
        "h0_omega": asymptotics.h0_omega(args.n),
        "h1_omega": invariants.h1_omega(args.n),
    }, 0


def _cmd_mu(args):
    n, m = _need_nm(args)
    return {"n": n, "m": m, "mu": invariants.mu(n, m)}, 0


def _cmd_chi_orb(args):
    n, m = _need_nm(args)
    return {"n": n, "m": m, "chi_orb": invariants.chi_orb(n, m)}, 0


def _cmd_h1(args):
    n, m = _need_nm(args)
    mu, chi, hsum = invariants.mu(n, m), invariants.chi_orb(n, m), latticesum.hsum(n, m)
    # the package's h1, not the difference of the three terms above: the verb
    # checks that function, and bench/tests injects a fault through it
    h1 = invariants.h1(n, m)
    ok = h1.denominator == 1 and h1 >= 0
    return {
        "n": n,
        "m": m,
        "mu": mu,
        "chi_orb": chi,
        "hsum": hsum,
        "h1": h1,
        "integral_and_nonnegative": ok,
    }, 0 if ok else 3


def _cmd_divisor(args):
    n, m = _need_nm(args)
    return {"n": n, "m": m, "coefficients": extension.divisor_D(n, m)}, 0


def _cmd_polygon(args):
    n, m = _need_nm(args, n_limit=POLYGON_N_LIMIT)
    return {
        "n": n,
        "m": m,
        "half_planes": latticesum.polygon(n, m),
        "pieces": [
            {
                "label": label,
                "vertices": vertices,
                "weight": dict(zip(("x1", "x2", "m", "const"), weight)),
            }
            for label, (vertices, weight) in enumerate(asymptotics.pieces(n, m))
        ],
    }, 0


def _cmd_fit(args):
    _need_n(args)
    _require(args.degree >= 0, "--degree must be >= 0")
    _require(args.degree <= DEGREE_LIMIT, f"--degree must be <= {DEGREE_LIMIT}")
    _require(args.max_period >= 1, "--max-period must be >= 1")
    _require(args.max_period <= MAX_PERIOD_LIMIT, f"--max-period must be <= {MAX_PERIOD_LIMIT}")
    m_to = args.m_to
    if m_to is None:  # at most (DEGREE_LIMIT + 3) * MAX_PERIOD_LIMIT - 1 < M_TO_LIMIT
        m_to = (args.degree + 3) * args.max_period - 1
    _require(m_to >= 0, "--m-to must be >= 0")
    _require(m_to <= M_TO_LIMIT, f"--m-to must be <= {M_TO_LIMIT}")
    values = tuple(
        (m, Fraction(latticesum.hsum(args.n, m))) for m in range(m_to + 1)
    )
    qp = quasifit.fit(values, args.degree, args.max_period)
    return {
        "n": args.n,
        "degree": args.degree,
        "max_period": args.max_period,
        "m_to": m_to,
        "period": qp.period,
        "branches": [list(branch) for branch in qp.branches],
    }, 0


def _cmd_integral_check(args):
    n, m = _need_nm(args, n_limit=INTEGRAL_N_LIMIT)
    hsum = latticesum.hsum(n, m)
    integral = asymptotics.upper_integral(n, m)
    return {"n": n, "m": m, "hsum": hsum, "integral": integral, "residual": hsum - integral}, 0


def _cmd_bigness(args):
    _require(args.config is not None, "--config PATH is required")
    cfg = bigness.load_config(args.config)
    return bigness.evaluate_criterion(cfg), 0


def _cmd_limits(args):
    _require(args.n is not None and args.n >= 2, "--n (the n_max to scan) must be >= 2")
    _require(args.n <= LIMITS_N_LIMIT, f"--n must be <= {LIMITS_N_LIMIT}")
    return {
        "h0": asymptotics.h0_omega_limit_report(args.n),
        "h1": invariants.h1_omega_limit_report(args.n),
    }, 0


_POINT = ("--n", "--m")

# verb -> (handler, the flags it reads); every verb also takes the output flags
_VERBS = {
    "hsum": (_cmd_hsum, _POINT),
    "hsum-sweep": (_cmd_sweep, ("--n", "--m-from", "--m-to", "--parallel", "--cache")),
    "oracle-verify": (_cmd_oracle_verify, _POINT),
    "omega": (_cmd_omega, ("--n",)),
    "mu": (_cmd_mu, _POINT),
    "chi-orb": (_cmd_chi_orb, _POINT),
    "h1": (_cmd_h1, _POINT),
    "divisor": (_cmd_divisor, _POINT),
    "polygon": (_cmd_polygon, _POINT),
    "fit": (_cmd_fit, ("--n", "--degree", "--max-period", "--m-to")),
    "integral-check": (_cmd_integral_check, _POINT),
    "bigness": (_cmd_bigness, ("--config",)),
    "limits": (_cmd_limits, ("--n",)),
}

# flag -> (type, default)
_FLAGS = {
    "--n": (int, None),
    "--m": (int, None),
    "--m-from": (int, None),
    "--m-to": (int, None),
    "--degree": (int, 3),
    "--max-period": (int, 12),
    "--parallel": (int, 1),
    "--cache": (str, None),
    "--config": (str, None),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are CliInputError, not an exit
    with usage text, so they reach stderr as JSON like every other error."""

    def error(self, message: str):
        raise CliInputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every run."""
    parser = _Parser(
        prog="ansing",
        description="Exact invariants of A_n surface singularities.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (handler, flags) in _VERBS.items():
        p = sub.add_parser(verb, allow_abbrev=False)
        p.set_defaults(handler=handler)
        for flag in flags:
            kind, default = _FLAGS[flag]
            p.add_argument(flag, type=kind, default=default)
        p.add_argument("--csv", action="store_true")
        p.add_argument("--json", action="store_true", help="JSON output (the default)")
        p.add_argument("--no-timestamp", action="store_true")
    return parser


def _csv_rows(payload: dict) -> list[dict]:
    if "rows" in payload:
        return payload["rows"]
    if "pieces" in payload:
        return [
            {
                "label": piece["label"],
                "vertices": json.dumps(piece["vertices"]),
                **{f"weight_{key}": val for key, val in piece["weight"].items()},
            }
            for piece in payload["pieces"]
        ]
    if "branches" in payload:
        return [
            {"residue": idx, **{f"c{k}": c for k, c in enumerate(branch)}}
            for idx, branch in enumerate(payload["branches"])
        ]
    return [payload]


def _emit_csv(payload: dict) -> str:
    rows = _csv_rows(payload)
    buffer = io.StringIO()
    if "rows" in payload:  # a sweep's header is fixed: an empty sweep prints it too
        fields = list(_ROW_FIELDS)
    else:
        fields = list(dict.fromkeys(key for row in rows for key in row))
    writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(
            {
                key: json.dumps(val) if isinstance(val, (list, dict)) else val
                for key, val in row.items()
            }
        )
    return buffer.getvalue()


def run(argv: list[str]) -> int:
    """Run one CLI call and return its exit code.

    The int-to-str digit limit is pinned at 4300, the limit every --n and --m
    bound was sized for, for the duration of the call; the caller's limit is
    restored after it.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # absent before 3.10.7
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, code = args.handler(args)
    except SystemExit as exc:  # --help, after printing the usage
        return int(exc.code) if exc.code else 0
    except (CliInputError, bigness.ConfigError, InsufficientSamplesError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except NoPeriodFitsError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    payload = _jsonable(payload)
    if args.csv:
        sys.stdout.write(_emit_csv(payload))
    else:
        if not args.no_timestamp:
            payload["timestamp"] = (
                datetime.datetime.now(datetime.timezone.utc).isoformat()
            )
        sys.stdout.write(json.dumps(payload) + "\n")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
