"""Repository-level pytest configuration.

Ensures ``src/`` is importable even when the package has not been installed
(e.g. on offline machines where ``pip install -e .`` cannot build an editable
wheel); the canonical installation path is still ``pip install -e .`` /
``python setup.py develop``.  ``tests/oracles/`` holds what test files of
more than one directory compare against: replaced implementations and
reference models that state a behaviour (``hop_model``).
``tests/gates/`` is importable too, so ``tests/unit/test_lint.py`` tests the
determinism rules and recorder where the gates define them.

Every session a test runs through ``repro.session.engine.run_session`` is
also held to the paper's claim (see
:func:`general_probe_confirmations_are_never_early`).
"""

import os
import sys

import pytest

_ROOT = os.path.dirname(__file__)
for _path in (os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests", "oracles"),
              os.path.join(_ROOT, "tests", "gates")):
    if _path not in sys.path:
        sys.path.insert(0, _path)


@pytest.fixture(autouse=True)
def general_probe_confirmations_are_never_early(monkeypatch):
    """Fail any ``general`` record whose probe confirmed a rule early.

    A probe confirmation is evidence that the rule forwards packets
    (general probing, Section 3.2.2), so no fault, switch profile or
    workload may make RUM confirm one before the rule's first data-plane
    activation, or confirm one that never activated.  ``sequential``'s
    probe confirmations assume in-order application and are left out: the
    faults that break that assumption make them early on purpose.
    """
    from repro.session import engine

    run_session = engine.run_session

    def checked_run_session(spec, observer=None):
        record = run_session(spec, observer)
        if record.technique == "general":
            for row in record.ledger:
                if row.confirmed_by == "probe" and (
                        row.activated_at is None or row.activated_at > row.confirmed_at):
                    pytest.fail(
                        f"general probing confirmed {row.switch} xid {row.xid} at "
                        f"{row.confirmed_at!r}, before its data-plane activation "
                        f"at {row.activated_at!r}")
        return record

    monkeypatch.setattr(engine, "run_session", checked_run_session)
