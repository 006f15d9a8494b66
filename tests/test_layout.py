"""No module of the package reads another module's private names.

A name with a leading underscore belongs to the module that defines it: the
Basel pairs and rate terms of ``asymptotics``, say, are reached from other
modules only through its public entries.  The check parses every
``src/ansing/*.py`` and flags ``from .mod import _name`` and a read of
``mod._name`` where ``mod`` is another package module; dunders are allowed.
"""

import ast
from pathlib import Path

import ansing

PACKAGE = Path(ansing.__file__).resolve().parent
MODULES = frozenset(path.stem for path in PACKAGE.glob("*.py")) - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module a ``from ... import`` reads from: "" for the
    package itself, None for a module outside it."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and (node.module + ".").startswith("ansing."):
        return node.module.removeprefix("ansing").removeprefix(".")
    return None


def private_references(source: str) -> list[str]:
    """Every import or attribute read of another package module's private
    name in the source, one line each."""
    tree = ast.parse(source)
    aliases = {}  # local name -> package module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # import ansing.mod as name
                package, _, module = alias.name.partition(".")
                if alias.asname and package == "ansing" and module in MODULES:
                    aliases[alias.asname] = module
        elif isinstance(node, ast.ImportFrom) and (module := _package_module(node)) is not None:
            for alias in node.names:
                if module == "" and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
                elif module in MODULES and _private(alias.name):
                    found.append(f"line {node.lineno}: from .{module} import {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _private(node.attr)
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    found = {
        path.name: refs
        for path in sorted(PACKAGE.glob("*.py"))
        if (refs := private_references(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_check_flags_each_form_and_only_those():
    flagged = [
        "from .asymptotics import h0_omega, _basel",
        "from ansing.asymptotics import _rate",
        "from . import asymptotics\nasymptotics._basel(3)",
        "from . import asymptotics as a\nx = a._h1_terms",
        "from ansing import bigness\nbigness._shown(1)",
        "import ansing.asymptotics as a\na._rate",
    ]
    for source in flagged:
        assert len(private_references(source)) == 1, source
    allowed = [
        "from .asymptotics import h0_omega\nfrom . import cli\ncli.__name__",
        "from . import asymptotics\nasymptotics.omega_rates(3)",
        "def _local():\n    pass\n_local()",
        "from fractions import Fraction\nFraction._operator_fallbacks",
        "import functools\nfunctools._lru_cache_wrapper",
        "import asymptotics as a\na._rate",
        "value = object()\nvalue._private",
    ]
    for source in allowed:
        assert private_references(source) == [], source
