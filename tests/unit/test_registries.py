"""The three catalogues: techniques, fault models and scenarios.

Defining a subclass that sets its ``name`` is what registers it, so a
forgotten registration cannot be written.  These tests pin what each
catalogue holds, check that every such class in the package resolves to
itself, and that a duplicate or empty key is refused at class definition.
"""

import pytest

from repro.core.techniques import TECHNIQUES, available_techniques
from repro.core.techniques.base import AckTechnique
from repro.faults import (
    CONTROL_CHANNEL,
    DATA_PLANE,
    FAULTS,
    LIFECYCLE,
    FaultModel,
    available_faults,
)
from repro.scenarios import SCENARIOS, Scenario, available_scenarios

#: ``(base class, registry)`` of every family.
FAMILIES = [(AckTechnique, TECHNIQUES), (FaultModel, FAULTS), (Scenario, SCENARIOS)]
_IDS = [base.__name__ for base, _ in FAMILIES]


def test_the_technique_catalogue_is_pinned():
    assert available_techniques() == [
        "adaptive", "barrier", "general", "no-wait", "sequential", "timeout",
    ]


def test_the_fault_catalogue_is_pinned_per_layer():
    assert available_faults(DATA_PLANE) == ["delay-spike", "reorder", "rule-drop"]
    assert available_faults(CONTROL_CHANNEL) == [
        "ack-duplicate", "ack-loss", "channel-jitter", "disconnect",
        "premature-ack",
    ]
    assert available_faults(LIFECYCLE) == ["link-flap", "switch-crash"]


def test_the_scenario_catalogue_is_pinned():
    assert available_scenarios() == [
        "correlated-tor-outage", "ecmp-rebalance", "fault-sweep",
        "firewall-rollout", "link-failure", "path-migration", "rolling-upgrade",
    ]


def _package_subclasses(base):
    """Every subclass of ``base`` defined in the ``repro`` package."""
    seen, pending = [], list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro."):
            seen.append(cls)
    return seen


@pytest.mark.parametrize("base, registry", FAMILIES, ids=_IDS)
def test_every_class_that_sets_its_key_resolves_to_itself(base, registry):
    keyed = [cls for cls in _package_subclasses(base) if "name" in cls.__dict__]
    assert keyed
    for cls in keyed:
        assert registry[cls.__dict__["name"]] is cls
    # ... and nothing else is in the catalogue.
    assert sorted(registry) == sorted(cls.__dict__["name"] for cls in keyed)


def test_a_class_without_its_own_key_stays_out():
    from repro.controller.firewall import DelayedHttpRuleFault

    assert "name" not in DelayedHttpRuleFault.__dict__
    assert DelayedHttpRuleFault not in FAULTS.values()


@pytest.mark.parametrize("base, registry", FAMILIES, ids=_IDS)
def test_a_duplicate_key_raises_at_class_definition(base, registry):
    taken = registry.names()[0]
    owner = registry[taken]
    body = {"name": taken, "layer": DATA_PLANE}
    with pytest.raises(ValueError, match="already registered"):
        type("Duplicate", (base,), body)
    assert registry[taken] is owner


@pytest.mark.parametrize("base, registry", FAMILIES, ids=_IDS)
def test_an_empty_key_raises_at_class_definition(base, registry):
    before = dict(registry)
    body = {"name": "", "layer": DATA_PLANE}
    with pytest.raises(ValueError):
        type("Nameless", (base,), body)
    assert dict(registry) == before


def test_an_unknown_key_lists_the_available_ones():
    with pytest.raises(KeyError, match="unknown technique 'quantum'; available"):
        TECHNIQUES["quantum"]
