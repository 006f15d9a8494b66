"""Sufficient bigness criterion for the cotangent bundle of a resolution.

A surface is described by its Chern term s2 = c1^2 - c2 and a multiset of
A_n singularities.  The criterion adds the localized cubic cohomology rates
of the singularities to s2/6; a strictly positive total certifies bigness.
The implication only runs one way, so a nonpositive total is reported as
inconclusive, never as "not big".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .exactmath import parse_rational
from .invariants import h1_omega


class ConfigError(ValueError):
    """Malformed surface configuration."""


@dataclass(frozen=True)
class SurfaceConfig:
    name: str
    s2: Fraction
    singularities: tuple[tuple[int, int], ...]  # (n, count)


def _as_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError(f"expected a rational, got {value!r}")
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"expected a rational as 'p/q', got {value!r}") from exc
    if isinstance(value, int):
        return Fraction(value)
    raise ConfigError(f"expected a rational as 'p/q' or integer, got {value!r}")


def config_from_dict(data: dict) -> SurfaceConfig:
    """Validate and normalize a configuration mapping.

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

    singularities = []
    for entry in data.get("singularities", []):
        if not isinstance(entry, dict):
            raise ConfigError(f"singularity entries must be objects, got {entry!r}")
        kind = entry.get("type", "A")
        if kind != "A":
            raise ConfigError(f"unknown singularity type {kind!r}: only A_n is supported")
        n = entry.get("n")
        count = entry.get("count")
        # bool is a subclass of int: reject it, or true would read as 1
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ConfigError(f"singularity index n must be an integer >= 1, got {n!r}")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ConfigError(f"count must be a positive integer, got {count!r}")
        singularities.append((n, count))
    return SurfaceConfig(name=name, s2=s2, singularities=tuple(singularities))


def load_config(path: str | Path) -> SurfaceConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"unreadable config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


VERDICT_BIG = "big (criterion satisfied)"
VERDICT_INCONCLUSIVE = "inconclusive"


def evaluate_criterion(cfg: SurfaceConfig) -> dict:
    """Exact criterion total T = sum(count * h1_omega(n)) + s2/6 and verdict."""
    localized = sum(
        (count * h1_omega(n) for n, count in cfg.singularities), Fraction(0)
    )
    chern_term = cfg.s2 / 6
    total = localized + chern_term
    return {
        "name": cfg.name,
        "localized": localized,
        "chern_term": chern_term,
        "total": total,
        "verdict": VERDICT_BIG if total > 0 else VERDICT_INCONCLUSIVE,
    }
