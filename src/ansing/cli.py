"""Command-line surface: one verb per computation, JSON (default) or CSV out.

A table-driven front end: _VERBS names each verb's handler, the flags it
reads and their bounds (the one statement of the input contract), _FLAGS
each flag's type and default.  The parser built from the two reads argv in
one pass (the grammar is in _Parser's docstring); _check_bounds then holds
every flag to its bounds, so a handler only checks rules across flags.

Exit codes: 0 success, 2 invalid input, 3 verification failure (formula vs
oracle mismatch, integrality failure, or an unfittable sequence).  Every
exit 2, a usage error included, prints one JSON object {"error": ...} on
stderr and nothing on stdout.  Each verb accepts only the flags it reads.
Verification verbs exit nonzero on mismatch so CI can gate on them.
Handlers return exact Fractions, written as "p/q" only at output by
format_rational, the JSON encoder's hook (csv's str() gives the same text).
Timestamps are suppressed with --no-timestamp, and sweeps can persist rows,
their rationals already "p/q", in an append-only checksummed cache.
"""

from __future__ import annotations

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
from types import SimpleNamespace

from . import asymptotics, bigness, extension, invariants, latticesum, oracle, quasifit
from .exactmath import format_rational
from .quasifit import InsufficientSamplesError, NoPeriodFitsError


class CliInputError(ValueError):
    pass


_JSON = json.JSONEncoder(default=format_rational)  # a type it cannot write raises


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
# verb handlers: each returns (payload, exit_code) for arguments in bounds
# ---------------------------------------------------------------------------


# Input bounds, used by _VERBS.  Each is sized so that the slowest call it
# admits takes about 1.6 s or less on a 2-core x86 machine under Python
# 3.11.  In fresh processes there, with hsum at O(m**(1/3)) row evaluations
# (0.9 ms at m = 1000000), none takes more than about 0.55 s: divisor
# --n 1000000 --m 1000000 and a sweep from 0 to --m-to 1500 at --n 1000000
# (mostly its 1501 mu values) about 0.5 s, h1 at --n 1000000 --m 1000000
# about 0.35 s (0.3 s of it in mu), polygon --n 10000 --m 1000000 0.26 s,
# fit --n 4 --degree 20 --max-period 40 --m-to 1500 and a sweep to
# --m-to 1500 at --n 4 0.12-0.15 s, integral-check --n 1000 --m 1000000
# 0.065 s (1 ms of it in the closed-form integral), limits --n 100000
# 0.07-0.09 s.  oracle-verify --n 16 --m 30 takes about 0.1 s, 0.05-0.07 s
# of it in hsum_oracle.
M_LIMIT = 1_000_000
N_LIMIT = 1_000_000  # mu's cost grows with n
M_TO_LIMIT = 1500  # fit and hsum-sweep: hsum at every m up to it
DEGREE_LIMIT = 20
MAX_PERIOD_LIMIT = 40
ORACLE_N_LIMIT = 16  # oracle-verify: exact ranks block by block, a cost
ORACLE_M_LIMIT = 30  # that grows polynomially in both n and m
INTEGRAL_N_LIMIT = 1000  # integral-check: h0_omega(n)'s exact Basel pair; n + 2 pieces at m = 0
POLYGON_N_LIMIT = 10_000  # polygon: n + 2 pieces, each with exact vertices
LIMITS_N_LIMIT = 100_000  # limits: float Basel sums of n_max terms for the gaps and ratios
# omega: past it the exact rates' numerators exceed CPython's 4300-digit
# int-to-str limit, so they could not be printed
OMEGA_N_LIMIT = 4964


def _cmd_hsum(args):
    return {"n": args.n, "m": args.m, "hsum": latticesum.hsum(args.n, args.m)}, 0


def _cmd_sweep(args):
    _require(args.m_from <= args.m_to + 1, "--m-from must be <= --m-to + 1")
    cache_path = Path(args.cache) if args.cache else None
    rows = sweep(args.n, args.m_from, args.m_to, args.parallel, cache_path)
    return {"n": args.n, "rows": rows}, 0


def _cmd_oracle_verify(args):
    n, m = args.n, args.m
    formula = latticesum.hsum(n, m)
    brute = oracle.hsum_oracle(n, m)
    match = formula == brute
    return {"n": n, "m": m, "formula": formula, "oracle": brute, "match": match}, (
        0 if match else 3
    )


def _cmd_omega(args):
    h0, h1 = asymptotics.omega_rates(args.n)
    return {"n": args.n, "h0_omega": h0, "h1_omega": h1}, 0


def _cmd_mu(args):
    return {"n": args.n, "m": args.m, "mu": invariants.mu(args.n, args.m)}, 0


def _cmd_chi_orb(args):
    return {"n": args.n, "m": args.m, "chi_orb": invariants.chi_orb(args.n, args.m)}, 0


def _cmd_h1(args):
    n, m = args.n, args.m
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
    return {"n": args.n, "m": args.m, "coefficients": extension.divisor_D(args.n, args.m)}, 0


def _cmd_polygon(args):
    n, m = args.n, args.m
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
    n, m = args.n, args.m
    hsum = latticesum.hsum(n, m)
    integral = asymptotics.upper_integral(n, m)
    return {"n": n, "m": m, "hsum": hsum, "integral": integral, "residual": hsum - integral}, 0


def _cmd_bigness(args):
    _require(args.config is not None, "--config PATH is required")
    cfg = bigness.load_config(args.config)
    return bigness.evaluate_criterion(cfg), 0


def _cmd_limits(args):
    return {
        "h0": asymptotics.h0_omega_limit_report(args.n),
        "h1": invariants.h1_omega_limit_report(args.n),
    }, 0


_N, _M = (1, N_LIMIT), (0, M_LIMIT)
_POINT = {"--n": _N, "--m": _M}

# verb -> (handler, {each flag it reads, in usage order: (least, greatest)}).
# A greatest of None is no upper bound; None bounds are no range check: a path,
# or fit's --m-to, derived from the other flags.  Output switches come on top.
_VERBS = {
    "hsum": (_cmd_hsum, _POINT),
    "hsum-sweep": (_cmd_sweep, {
        "--n": _N, "--m-from": (0, None), "--m-to": (-1, M_TO_LIMIT), "--parallel": (1, None),
        "--cache": None,
    }),
    "oracle-verify": (_cmd_oracle_verify, {"--n": (1, ORACLE_N_LIMIT), "--m": (0, ORACLE_M_LIMIT)}),
    "omega": (_cmd_omega, {"--n": (1, OMEGA_N_LIMIT)}),
    "mu": (_cmd_mu, _POINT),
    "chi-orb": (_cmd_chi_orb, _POINT),
    "h1": (_cmd_h1, _POINT),
    "divisor": (_cmd_divisor, _POINT),
    "polygon": (_cmd_polygon, {"--n": (1, POLYGON_N_LIMIT), "--m": _M}),
    "fit": (_cmd_fit, {
        "--n": _N, "--degree": (0, DEGREE_LIMIT), "--max-period": (1, MAX_PERIOD_LIMIT),
        "--m-to": None,
    }),
    "integral-check": (_cmd_integral_check, {"--n": (1, INTEGRAL_N_LIMIT), "--m": _M}),
    "bigness": (_cmd_bigness, {"--config": None}),
    "limits": (_cmd_limits, {"--n": (2, LIMITS_N_LIMIT)}),
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


# the output switches every verb takes besides its own flags
_SWITCHES = ("--csv", "--json", "--no-timestamp")
# a negative number (`$` also matches before a final newline) is a value, not a flag
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _check_bounds(args) -> None:
    """Hold each flag of the verb to its bounds in _VERBS; a missing value is below them."""
    for flag, bounds in _VERBS[args.verb][1].items():
        if bounds is None:
            continue
        least, greatest = bounds
        value = getattr(args, _dest(flag))
        if value is None or value < least:
            raise CliInputError(f"{flag} must be an integer >= {least}")
        if greatest is not None and value > greatest:
            raise CliInputError(f"{flag} must be <= {greatest}")


def _reads_as_flag(token: str, options: dict) -> bool:
    """Whether `token` is a flag rather than a value.

    A token that starts with "-", other than "-" alone, is a flag unless it
    is a negative number or contains a space; even then it is a flag if the
    part before its first "=" is one of `options`, or if it starts with
    "-h" (read as -h followed by a value).
    """
    return (
        token[:1] == "-"
        and token != "-"
        and (
            token.partition("=")[0] in options
            or token.startswith("-h")
            or not (" " in token or _NEGATIVE.match(token))
        )
    )


class _Parser:
    """The argv grammar, read off _VERBS and _FLAGS in one pass.

    argv[0] names the verb (before it, -h/--help is the only flag read).
    Every later token is one of the verb's flags with its value, as
    `--flag value` or `--flag=value` (the last of a repeated flag wins),
    one of _SWITCHES, or -h/--help, which prints the usage and exits 0.
    A malformed or missing value is a usage error (CliInputError) at once;
    a token no flag reads is one after the scan, so that a later --help
    still prints the usage.
    """

    def __init__(self) -> None:
        help_options = dict.fromkeys(("-h", "--help"), (None, None))
        switches = {switch: (_dest(switch), None) for switch in _SWITCHES}
        self._verbs = {}  # verb -> (options, namespace defaults, usage)
        for verb, (handler, flags) in _VERBS.items():
            options = {flag: (_dest(flag), _FLAGS[flag][0]) for flag in flags}
            defaults = (
                {"verb": verb, "handler": handler}
                | {_dest(flag): _FLAGS[flag][1] for flag in flags}
                | dict.fromkeys(map(_dest, _SWITCHES), False)
            )
            usage = " ".join(
                ["ansing", verb]
                + [f"[{flag} {_dest(flag).upper()}]" for flag in flags]
                + [f"[{switch}]" for switch in _SWITCHES]
            )
            self._verbs[verb] = (options | switches | help_options, defaults, usage)
        lines = [spec[2] for spec in self._verbs.values()]
        self._top = (help_options, "\n       ".join(lines))

    def parse_args(self, argv: list[str]) -> SimpleNamespace:
        """The namespace `argv` names: verb, handler, one attribute per flag
        of the verb and one per switch."""
        args = None
        options, usage = self._top
        strays = []  # tokens no flag reads
        tokens = iter(argv)
        for token in tokens:
            if token == "--":  # ends the flags: every later token is a stray
                strays += [token, *tokens]
                break
            if not _reads_as_flag(token, options):
                if args is not None:
                    strays.append(token)
                    continue
                if token not in self._verbs:
                    choices = ", ".join(map(repr, self._verbs))
                    raise CliInputError(
                        f"argument verb: invalid choice: {token!r} (choose from {choices})"
                    )
                options, defaults, usage = self._verbs[token]
                args = SimpleNamespace(**defaults)
                continue
            flag, value = token, None
            if token not in options:
                flag, eq, value = token.partition("=")
                if not (eq and flag in options):
                    if not token.startswith("-h"):
                        strays.append(token)
                        continue
                    flag, value = "-h", token[2:]
            dest, kind = options[flag]
            if kind is None:  # a switch or -h/--help
                if value is not None:
                    raise CliInputError(f"argument {flag}: ignored explicit argument {value!r}")
                if dest is None:
                    sys.stdout.write(f"usage: {usage}\n")
                    raise SystemExit(0)
                setattr(args, dest, True)
                continue
            if value is None:
                value = next(tokens, "--")  # a missing value, like "--", is no value
                if value == "--" or _reads_as_flag(value, options):
                    raise CliInputError(f"argument {flag}: expected one argument")
            try:
                setattr(args, dest, kind(value))
            except ValueError:
                raise CliInputError(
                    f"argument {flag}: invalid {kind.__name__} value: {value!r}"
                ) from None
        if args is None:
            raise CliInputError("the following arguments are required: verb")
        if strays:
            raise CliInputError(f"unrecognized arguments: {' '.join(strays)}")
        return args


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process and reused by every run."""
    return _Parser()


def _csv_rows(payload: dict) -> list[dict]:
    if "rows" in payload:
        return payload["rows"]
    if "pieces" in payload:
        return [
            {
                "label": piece["label"],
                "vertices": piece["vertices"],
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
                # csv writes a Fraction with str(), which is format_rational's "p/q"
                key: _JSON.encode(val) if isinstance(val, (list, tuple, dict)) else val
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
        _check_bounds(args)
        payload, code = args.handler(args)
    except SystemExit:  # --help, after printing the usage
        return 0
    except (CliInputError, bigness.ConfigError, InsufficientSamplesError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except NoPeriodFitsError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    if args.csv:
        sys.stdout.write(_emit_csv(payload))
    else:
        if not args.no_timestamp:
            payload["timestamp"] = (
                datetime.datetime.now(datetime.timezone.utc).isoformat()
            )
        sys.stdout.write(_JSON.encode(payload) + "\n")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
