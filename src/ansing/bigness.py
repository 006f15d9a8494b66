"""Sufficient bigness criterion for the cotangent bundle of a resolution.

A surface is described by its Chern term s2 = c1^2 - c2 and a multiset of
A_n singularities.  The criterion adds the localized cubic cohomology rates
of the singularities to s2/6; a strictly positive total certifies bigness.
The implication only runs one way, so a nonpositive total is reported as
inconclusive, never as "not big".
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .asymptotics import _basel_sums, _h1_terms, _rate
from .exactmath import parse_rational

# Config bounds.  Every entry's h1_omega(n) is computed exactly, all of them
# from one pass of exact Basel partial sums up to the largest n (about 40 ms to
# n = 4000 on a 2-core x86 machine).  The printed total's denominator holds
# lcm(1..n)^2, about 3500 digits at n = 4000, times those of c1sq and c2; the
# largest admitted config (16 entries n = 3985..4000) stays well inside the
# 4300-digit int-to-str limit and is evaluated and printed in about 50 ms.
N_LIMIT = 4000  # singularity index n
COUNT_LIMIT = 10**6  # count of one entry
ENTRIES_LIMIT = 16  # entries in "singularities"
DIGITS_LIMIT = 100  # digits of p and of q in a rational p/q
BYTES_LIMIT = 65536  # the file, read no further: the largest admitted config takes ~1.3 KB
ECHO_LIMIT = 40  # characters of a rejected value that its error message repeats

# (name, s2, singularities), each singularity an (n, count) pair
Config = tuple[str, Fraction, tuple[tuple[int, int], ...]]


class ConfigError(ValueError):
    """Malformed surface configuration."""


def _shown(value) -> str:
    """repr(value), cut to its first ECHO_LIMIT characters plus its length
    when longer, so that an error message stays one short line.  A long
    integer is named by its bit length: past the int-to-str digit limit,
    repr() would raise."""
    if isinstance(value, int) and value.bit_length() > 3 * ECHO_LIMIT:
        return f"an integer of {value.bit_length()} bits"
    text = repr(value)
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT]}... ({len(text)} characters)"


def _as_fraction(value) -> Fraction:
    """An integer, or a string [+-]p or [+-]p/q, with p and q of at most
    DIGITS_LIMIT digits each.  The length of each part is checked first, so
    no longer number reaches ``parse_rational``, which reads the grammar."""
    if isinstance(value, int) and not isinstance(value, bool):
        if -(10**DIGITS_LIMIT) < value < 10**DIGITS_LIMIT:
            return Fraction(value)
    elif isinstance(value, str) and all(
        len(part) <= DIGITS_LIMIT for part in value.lstrip("+-").split("/")
    ):
        try:
            return parse_rational(value)
        except ValueError as exc:
            if isinstance(exc.__cause__, ZeroDivisionError):  # "zero denominator in ..."
                raise ConfigError(str(exc)) from exc
    raise ConfigError(
        f"expected an integer or a string 'p' or 'p/q' of at most {DIGITS_LIMIT} digits each,"
        f" got {_shown(value)}"
    )


def config_from_dict(data: dict) -> Config:
    """Validate and normalize a configuration mapping into (name, s2,
    singularities).

    Either ``s2`` or both of ``c1sq`` and ``c2`` must be present; when all
    three appear they must satisfy s2 = c1sq - c2.  Only type-A singularities
    are accepted: other types are rejected, not silently dropped.
    """
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ConfigError("name must be a string")

    has_s2 = "s2" in data
    has_chern = "c1sq" in data and "c2" in data
    if not has_s2 and not has_chern:
        raise ConfigError("need s2, or both c1sq and c2")
    if has_chern:
        s2 = _as_fraction(data["c1sq"]) - _as_fraction(data["c2"])
        if has_s2 and _as_fraction(data["s2"]) != s2:
            raise ConfigError("inconsistent Chern data: s2 != c1sq - c2")
    else:
        s2 = _as_fraction(data["s2"])

    entries = data.get("singularities", [])
    if not isinstance(entries, list):
        raise ConfigError("singularities must be a list")
    if len(entries) > ENTRIES_LIMIT:
        raise ConfigError(f"at most {ENTRIES_LIMIT} singularity entries")
    singularities = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ConfigError(f"singularity entries must be objects, got {_shown(entry)}")
        kind = entry.get("type", "A")
        if kind != "A":
            raise ConfigError(f"unknown singularity type {_shown(kind)}: only A_n is supported")
        n = entry.get("n")
        count = entry.get("count")
        # bool is a subclass of int: reject it, or true would read as 1
        if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= N_LIMIT:
            raise ConfigError(f"singularity index n must be an integer in 1..{N_LIMIT}, got {_shown(n)}")
        if not isinstance(count, int) or isinstance(count, bool) or not 1 <= count <= COUNT_LIMIT:
            raise ConfigError(f"count must be an integer in 1..{COUNT_LIMIT}, got {_shown(count)}")
        singularities.append((n, count))
    return name, s2, tuple(singularities)


def load_config(path: str | Path) -> Config:
    try:
        with open(path, "rb") as handle:
            raw = handle.read(BYTES_LIMIT + 1)
        if len(raw) > BYTES_LIMIT:
            raise ConfigError(f"config file {path} is larger than {BYTES_LIMIT} bytes")
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"unreadable config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers an integer past the int-to-str digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


VERDICT_BIG = "big (criterion satisfied)"
VERDICT_INCONCLUSIVE = "inconclusive"


def evaluate_criterion(cfg: Config) -> dict:
    """Exact criterion total T = sum(count * h1_omega(n)) + s2/6 and verdict.

    Each h1_omega(n) is read off the exact Basel partial sum B(n); one pass
    of the sums up to the largest n serves every entry.
    """
    name, s2, singularities = cfg
    wanted = {n for n, _ in singularities}
    basel = {n: b for n, b in enumerate(_basel_sums(max(wanted, default=0)), start=1) if n in wanted}
    localized = sum(
        (count * _rate(_h1_terms(n), basel[n]) for n, count in singularities), Fraction(0)
    )
    chern_term = s2 / 6
    total = localized + chern_term
    return {
        "name": name,
        "localized": localized,
        "chern_term": chern_term,
        "total": total,
        "verdict": VERDICT_BIG if total > 0 else VERDICT_INCONCLUSIVE,
    }
