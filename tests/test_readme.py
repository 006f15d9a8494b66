"""The README's Python example runs as written, its module table names only
what the modules define, and its command-line tables are the CLI's."""

import importlib
import re
from pathlib import Path

import ansing
from ansing import bigness, cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_layout_names_resolve():
    # a row is "| `ansing.<module>` | contents |"; in the contents, a backticked
    # `name` or `name(args)` must be an attribute of the row's module, and a
    # backticked `module.name` an attribute of ansing.<module>
    rows = re.findall(r"^\| `(ansing\.\w+)` \| (.*) \|$", README.read_text(encoding="utf-8"), re.M)
    package = Path(ansing.__file__).parent
    assert {module for module, _ in rows} == {
        f"ansing.{path.stem}" for path in package.glob("*.py") if path.stem != "__init__"
    }
    missing = []
    for module, contents in rows:
        for span in re.findall(r"`([^`]+)`", contents):
            if bare := re.fullmatch(r"([A-Za-z_]\w*)(\(.*\))?", span):
                owner, name = module, bare[1]
            elif dotted := re.fullmatch(r"([A-Za-z_]\w*)\.([A-Za-z_]\w*)", span):
                owner, name = f"ansing.{dotted[1]}", dotted[2]
            else:
                continue  # a formula or a path, not a name
            if not hasattr(importlib.import_module(owner), name):
                missing.append(f"{module}: `{span}`")
    assert not missing


def _number(text: str) -> int:
    return int(text.removesuffix(" bytes").replace(" ", ""))  # "65 536 bytes"


def test_readme_command_line_tables_are_the_verb_table():
    text = README.read_text(encoding="utf-8")
    # "| `verb`, `verb` | `--flag`, `--flag` |": the flags each verb reads
    rows = re.findall(r"^\| ((?:`[\w-]+`(?:, )?)+) \| ((?:`--[\w-]+`(?:, )?)+) \|$", text, re.M)
    flags = {verb: re.findall(r"`(--[\w-]+)`", cell) for verbs, cell in rows for verb in re.findall(r"`([\w-]+)`", verbs)}
    assert flags == {verb: list(table) for verb, (_, table) in cli._VERBS.items()}
    # "| `--flag` of `verb`, `verb` and `verb` | greatest | why |", each pair once;
    # fit's --m-to, derived, is held to M_TO_LIMIT by the verb itself
    rows = re.findall(r"^\| `(--[\w-]+)` of ([^|]+) \| ([^|]+?) \|", text, re.M)
    stated = [((verb, flag), _number(top)) for flag, verbs, top in rows for verb in re.findall(r"`([\w-]+)`", verbs)]
    tops = {
        (verb, flag): bounds[1]
        for verb, (_, table) in cli._VERBS.items()
        for flag, bounds in table.items()
        if bounds and bounds[1] is not None
    }
    assert len(stated) == len(dict(stated))
    assert dict(stated) == tops | {("fit", "--m-to"): cli.M_TO_LIMIT}
    # "| `bigness --config`: n / count / ... | 4000 / 1 000 000 / ... | why |"
    names, tops = re.search(r"^\| `bigness --config`: ([^|]+) \| ([^|]+) \|", text, re.M).groups()
    assert dict(zip(names.split(" / "), map(_number, tops.split(" / ")))) == {
        "n": bigness.N_LIMIT,
        "count": bigness.COUNT_LIMIT,
        "entries": bigness.ENTRIES_LIMIT,
        "digits": bigness.DIGITS_LIMIT,
        "file size": bigness.BYTES_LIMIT,
    }
