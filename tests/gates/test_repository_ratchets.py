"""What the repository may not grow: source lines and lint rules."""

from pathlib import Path

from repro.lint.__main__ import main as lint_main

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``find src -name '*.py' | xargs cat | wc -l``.  Net ``src/`` lines only go
#: down this round: a change that removes lines lowers the ceiling to what it
#: reaches, a change that adds some deletes as many elsewhere.
SOURCE_LINE_CEILING = 19580


def test_source_lines_stay_under_the_ceiling():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    assert lines <= SOURCE_LINE_CEILING, (
        f"src/ has {lines} python lines, ceiling {SOURCE_LINE_CEILING}")


def test_the_rule_catalogue_is_exactly_four_rules(capsys):
    # What ``--list-rules`` prints, not only what the registry holds.  The
    # retired RL004 / RL005 / RL007 / RL008 / RL009 stay gone and their codes
    # are not reused; a fifth rule should have been structure that makes the
    # mistake unrepresentable.
    assert lint_main(["--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("RL")]
    assert listed == ["RL001", "RL002", "RL003", "RL006"]
