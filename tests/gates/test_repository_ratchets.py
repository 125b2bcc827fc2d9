"""What the repository may not grow: source lines and knobs."""

import argparse
import dataclasses
from pathlib import Path

from repro.__main__ import build_parser
from repro.campaign.grid import CampaignCell, CampaignSpec
from repro.faults.plan import FaultPlan
from repro.recovery.policy import RecoveryPolicy
from repro.scenarios.base import ScenarioParams
from repro.session.spec import SessionKnobs, StackSpec

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``find src -name '*.py' | xargs cat | wc -l``.  Net ``src/`` lines only go
#: down this round: a change that removes lines lowers the ceiling to what it
#: reaches, a change that adds some deletes as many elsewhere.
SOURCE_LINE_CEILING = 16650

#: Knobs: the fields of the run-configuration dataclasses plus every
#: non-help option of ``python -m repro``, sub-commands included.
#: A knob no caller sets is a constant; a new one replaces an old one.
KNOB_CEILING = 82

KNOB_DATACLASSES = (SessionKnobs, StackSpec, ScenarioParams, CampaignCell,
                    CampaignSpec, FaultPlan, RecoveryPolicy)


def test_source_lines_stay_under_the_ceiling():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    assert lines <= SOURCE_LINE_CEILING, (
        f"src/ has {lines} python lines, ceiling {SOURCE_LINE_CEILING}")


def _options(parser):
    """Non-help actions of ``parser`` and of its sub-commands."""
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(_options(sub) for sub in action.choices.values())
        elif not isinstance(action, argparse._HelpAction):
            count += 1
    return count


def test_knobs_stay_under_the_ceiling():
    fields = sum(len(dataclasses.fields(cls)) for cls in KNOB_DATACLASSES)
    knobs = fields + _options(build_parser())
    assert knobs <= KNOB_CEILING, f"{knobs} knobs, ceiling {KNOB_CEILING}"
