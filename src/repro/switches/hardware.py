"""The buggy hardware switch model (HP ProCurve 5406zl-like)."""

from __future__ import annotations

from typing import Optional

from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRandom
from repro.switches.base import Switch
from repro.switches.profiles import (
    SwitchProfile,
    hp5406zl_profile,
    reordering_switch_profile,
)


class HardwareSwitch(Switch):
    """Hardware switch whose barrier replies precede data-plane visibility.

    The default profile (:func:`~repro.switches.profiles.hp5406zl_profile`)
    keeps rule ordering across barriers but feeds the data plane at a bounded
    rate, so barrier replies may arrive up to ~300 ms before the
    corresponding rule forwards packets.  Pass
    ``profile=reordering_switch_profile()`` (or ``reordering=True``) to model
    the worse class of switches that also reorder modifications across
    barriers.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        profile: Optional[SwitchProfile] = None,
        reordering: bool = False,
        datapath_id: Optional[int] = None,
        rng: Optional[SeededRandom] = None,
    ) -> None:
        if profile is None:
            profile = reordering_switch_profile() if reordering else hp5406zl_profile()
        super().__init__(sim, name, profile, datapath_id=datapath_id, rng=rng)
