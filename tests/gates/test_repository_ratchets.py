"""What the repository may not grow: source lines."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``find src -name '*.py' | xargs cat | wc -l``.  Net ``src/`` lines only go
#: down this round: a change that removes lines lowers the ceiling to what it
#: reaches, a change that adds some deletes as many elsewhere.
SOURCE_LINE_CEILING = 18167


def test_source_lines_stay_under_the_ceiling():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    assert lines <= SOURCE_LINE_CEILING, (
        f"src/ has {lines} python lines, ceiling {SOURCE_LINE_CEILING}")

