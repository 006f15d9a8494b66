"""The mutation list in ``tests/mutants.py`` still matches the source: every
replacement's old text occurs exactly once in its file, so no mutant turns
into a silent no-op after a refactor."""

from mutants import MUTANTS, ROOT


def test_every_mutant_replaces_exactly_one_occurrence():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        source = (ROOT / "src" / "ansing" / mutant.file).read_text(encoding="utf-8")
        assert source.count(mutant.old) == 1, mutant.name
        assert mutant.old != mutant.new, mutant.name
        assert mutant.expect in ("killed", "known-gap"), mutant.name
        assert all((ROOT / "tests" / name).is_file() for name in mutant.tests), mutant.name
