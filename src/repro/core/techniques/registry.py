"""The catalogue of acknowledgment techniques.

A technique is its class.  Every
:class:`~repro.core.techniques.base.AckTechnique` subclass whose own body
sets ``name`` is in :data:`TECHNIQUES` from the moment it is defined, and
the class carries everything a run needs to know about it: the parameters
a run may set, each a :class:`~repro.core.techniques.base.Parameter` class
attribute holding the paper's default (adaptive's ``assumed_rate``), and
its wiring (``uses_rum``, ``ignore_dependencies``).  A technique owns its
parameters: ``StackSpec.rum_overrides`` may set only those it declares.

``no-wait`` — the consistency-free lower bound of Figure 7 — is a technique
like any other.  It simply runs without a RUM proxy: call sites ask
``uses_rum`` instead of comparing names.

Adding a technique is defining a subclass with a ``name``::

    from repro.core.techniques.base import AckTechnique, Parameter

    class MyTechnique(AckTechnique):
        name = "mine"
        timeout = Parameter(0.05, zero_allowed=True)  # self.timeout in a run

and every session, scenario, and campaign path picks it up by name.

Registration is per-process: the built-in techniques are defined when this
package is imported, but a technique defined at runtime exists only in the
defining process.  Parallel campaign workers
(:class:`~repro.campaign.runner.CampaignRunner`) therefore only see
techniques defined at import time of a module the worker also imports — put
custom techniques in an importable module (or run cells in-process with
:func:`~repro.campaign.runner.run_cell`) rather than defining them inline
in a script.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Type, Union

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.techniques.base import AckTechnique

#: Name of the null technique (issue everything at once, wait for nothing):
#: the lower bound of Figure 7.
TECHNIQUE_NO_WAIT = "no-wait"

#: Technique name -> :class:`AckTechnique` subclass.
TECHNIQUES = Registry("technique")


def get_technique(name: str) -> Type["AckTechnique"]:
    """Look a technique class up by name."""
    return TECHNIQUES[name]


def resolve_technique(
    technique: Union[str, Type["AckTechnique"]]
) -> Type["AckTechnique"]:
    """Accept either a registry name or a technique class.

    Unknown names raise ``ValueError`` — the historical contract of the run
    entry points (``get_technique`` itself keeps dict-like ``KeyError``
    semantics for direct lookups).
    """
    if not isinstance(technique, str):
        return technique
    try:
        return TECHNIQUES[technique]
    except KeyError as error:
        raise ValueError(error.args[0]) from None


def available_techniques() -> List[str]:
    """All registered technique names, sorted."""
    return TECHNIQUES.names()
