"""Test oracle for the sweep cache's reader: the line-by-line loader that
``ansing.cli._load_cache`` replaced.

It splits the file into lines with ``bytes.splitlines``, checks each line's
head and its n at fixed offsets, reads m with a regex, verifies the SHA-256
of the canonical text and parses the row with ``json.loads``.  The new
reader must serve exactly what this one serves on any file whose served
lines were written by ``_append_cache``; it is stricter only on lines whose
checksum verifies but whose text is not in the writer's layout.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

ROW_FIELDS = ("m", "hsum", "mu", "chi_orb", "h1")
HEAD = b'{"checksum":"'
DIGEST = slice(len(HEAD), len(HEAD) + 64)
BODY = DIGEST.stop + 2  # canonical[1:] starts behind the '",'
ROW_M = re.compile(rb',"m":(\d+),')


def load_cache_by_lines(path: Path, n: int, wanted: range) -> dict[int, dict]:
    """The verified rows of `n` whose m is in `wanted`, keyed by m; a
    missing file is an empty cache."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return {}
    key = b'"n":%d,"row":' % n
    rows: dict[int, dict] = {}
    for line in data.splitlines():
        if not (line.startswith(key, BODY) and line.startswith(HEAD) and line[DIGEST.stop : BODY] == b'",'):
            continue
        found = ROW_M.search(line, BODY + len(key))
        try:
            if found is None or int(found[1]) not in wanted:
                continue
            canonical = b"{" + line[BODY:]
            if hashlib.sha256(canonical).hexdigest().encode("ascii") != line[DIGEST]:
                continue  # corrupted row: recompute
            row = json.loads(canonical)["row"]
            rows[row["m"]] = {field: row[field] for field in ROW_FIELDS}
        except (ValueError, KeyError, TypeError):
            continue  # unreadable line: recompute
    return rows
