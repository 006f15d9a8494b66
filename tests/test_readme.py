"""The README's Python example runs as written, and its module table names
only what the modules define."""

import importlib
import re
from pathlib import Path

import ansing

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
