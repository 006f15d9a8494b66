"""The argparse parser the CLI used before its table-driven one, kept as the
reference that tests/test_cli_fuzz.py compares the CLI's parser against.

It is the old `cli.build_parser` verbatim, except that the top-level parser
takes `allow_abbrev=False`: the old one read `ansing --he` as `--help`,
where an abbreviated flag is a usage error everywhere else.
"""

import argparse
import functools

from ansing.cli import _FLAGS, _VERBS, CliInputError


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
        allow_abbrev=False,
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
