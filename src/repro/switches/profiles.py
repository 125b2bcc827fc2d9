"""Switch behaviour profiles.

A profile is the *calibration* of a switch model: every timing and ordering
property RUM (or any controller) can observe from the outside.  The default
hardware profile reproduces the observable behaviour the paper and its
accompanying technical report [Kuzniar et al., EPFL-REPORT-199497] describe
for the HP ProCurve 5406zl:

* FlowMods are accepted and processed by the control plane at a sustained
  rate of roughly 275 per second,
* rules reach the data plane (TCAM) one at a time, at a bounded rate that
  drops as the table fills and no sooner than a fixed latency after the
  control plane applied them, so data-plane visibility lags the control
  plane by up to ~170 ms over a 300-rule burst (the paper's switch: ~300 ms
  in "three visible steps", which are not modelled),
* barrier replies are generated from the control-plane view, i.e. up to
  ~170 ms (the paper: ~300 ms) before the corresponding rules forward packets,
* the switch processes roughly 7 000 PacketOut/s and 5 500 PacketIn/s,
* rule priorities are ignored; installation order decides importance,
* the sustained FlowMod rate degrades as table occupancy grows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional


class BarrierMode(str, Enum):
    """When the switch emits a barrier reply."""

    #: Reply only after every preceding modification is visible in the data
    #: plane — the behaviour the OpenFlow specification arguably intends.
    CORRECT = "correct"
    #: Reply as soon as preceding messages were processed by the control
    #: plane, which may be long before the data plane catches up.  This is
    #: the buggy behaviour the paper measures on hardware.
    CONTROL_PLANE = "control_plane"


class DataPlaneSyncModel(str, Enum):
    """How control-plane rule state propagates into the data plane."""

    #: Rules become visible to packets the moment the control plane applies
    #: them (software switches).
    IMMEDIATE = "immediate"
    #: Rules trickle into the data plane at a fixed rate with a fixed extra
    #: latency per rule.
    RATE_LIMITED = "rate_limited"


@dataclass
class SwitchProfile:
    """Externally observable behaviour of one switch model."""

    name: str = "generic"

    # -- control plane ------------------------------------------------------
    #: Sustained FlowMod processing rate (rules/second) with an empty table.
    flowmod_rate: float = 275.0
    #: Fractional jitter applied to each FlowMod processing time.
    flowmod_jitter: float = 0.05
    #: Additional per-rule slowdown as the table grows: the effective
    #: processing time is multiplied by ``1 + occupancy_slowdown * occupancy``.
    occupancy_slowdown: float = 0.0
    #: Processing time for lightweight messages (echo, features, stats).
    trivial_processing_time: float = 0.0001
    #: Control-plane CPU time consumed by one PacketOut (interferes with
    #: FlowMod processing; the egress rate cap below is separate).
    packet_out_processing_time: float = 0.0001
    #: Control-plane CPU time consumed by encapsulating one PacketIn.
    packet_in_processing_time: float = 0.00002

    # -- barriers --------------------------------------------------------------
    barrier_mode: BarrierMode = BarrierMode.CONTROL_PLANE
    #: Whether the switch may apply modifications to the data plane in a
    #: different order than they were received, even across barriers.
    reorders_across_barriers: bool = False

    # -- data plane synchronisation ----------------------------------------------
    sync_model: DataPlaneSyncModel = DataPlaneSyncModel.RATE_LIMITED
    #: Extra latency per rule for the RATE_LIMITED model.
    dataplane_extra_latency: float = 0.1
    #: Rule apply rate for the RATE_LIMITED model (rules/second).
    dataplane_apply_rate: float = 275.0
    #: Per-rule slowdown of the data-plane apply rate as the table grows
    #: (TCAM insertion gets slower with occupancy); the effective apply time
    #: is multiplied by ``1 + dataplane_occupancy_slowdown * occupancy``.
    dataplane_occupancy_slowdown: float = 0.0

    # -- packet I/O -----------------------------------------------------------------
    #: Maximum PacketOut injection rate (packets/second).
    packet_out_rate: float = 7006.0
    #: Maximum PacketIn generation rate (packets/second).
    packet_in_rate: float = 5531.0
    #: Data-plane forwarding latency per packet (seconds).
    forwarding_latency: float = 0.00002

    # -- flow table --------------------------------------------------------------------
    table_capacity: Optional[int] = None
    #: ``"priority"`` or ``"install_order"`` (the paper's hardware switch
    #: ignores priorities).
    table_mode: str = "priority"

    def with_overrides(self, **kwargs) -> "SwitchProfile":
        """A copy of the profile with selected fields replaced."""
        return replace(self, **kwargs)

    def flowmod_processing_time(self, occupancy: int) -> float:
        """Nominal control-plane processing time of one FlowMod."""
        base = 1.0 / self.flowmod_rate
        return base * (1.0 + self.occupancy_slowdown * occupancy)

    def validate(self) -> None:
        """Sanity-check numeric parameters; raises :class:`ValueError`."""
        # ``not x > 0``, never ``x <= 0``: a NaN must fail these too.
        if not self.flowmod_rate > 0:
            raise ValueError("flowmod_rate must be positive")
        if not (self.packet_out_rate > 0 and self.packet_in_rate > 0):
            raise ValueError("packet I/O rates must be positive")
        if not self.forwarding_latency >= 0:  # links add it to due times
            raise ValueError("forwarding_latency must be >= 0")
        if self.table_mode not in ("priority", "install_order"):
            raise ValueError(f"unknown table mode {self.table_mode!r}")


def software_switch_profile() -> SwitchProfile:
    """A well-behaved software switch (Open vSwitch-like).

    Barriers are correct, rules are visible to the data plane immediately
    after the control plane applies them, and updates are fast.
    """
    return SwitchProfile(
        name="software",
        flowmod_rate=2000.0,
        flowmod_jitter=0.02,
        barrier_mode=BarrierMode.CORRECT,
        reorders_across_barriers=False,
        sync_model=DataPlaneSyncModel.IMMEDIATE,
        packet_out_rate=50000.0,
        packet_in_rate=50000.0,
        forwarding_latency=0.00001,
        table_mode="priority",
    )


def hp5406zl_profile() -> SwitchProfile:
    """The buggy hardware switch used in the paper's end-to-end experiment.

    Calibrated so that, for a 300-rule burst, barrier replies precede
    data-plane visibility by up to ~170 ms (``fig8``; the paper measures
    ~250-300 ms on the real switch, and a larger lag here breaks ``fig6``'s
    claims).  The lag grows with the backlog between the control plane and
    the slower TCAM insertion path and with table occupancy.  The sustained
    modification rate is in the 200-285 rules/s range reported by the
    technical report, and the effective data-plane apply rate drops below
    250/s as the table fills — which is what makes the "adaptive 250" model
    unsafe late in the experiment.
    The real switch also ignores priorities in favour of installation
    order.  This profile matches by priority (``table_mode="priority"``);
    ``hp5406zl_profile().with_overrides(table_mode="install_order")``
    models the quirk.
    """
    return SwitchProfile(
        name="hp5406zl",
        flowmod_rate=285.0,
        flowmod_jitter=0.05,
        occupancy_slowdown=0.0,
        barrier_mode=BarrierMode.CONTROL_PLANE,
        reorders_across_barriers=False,
        sync_model=DataPlaneSyncModel.RATE_LIMITED,
        dataplane_apply_rate=265.0,
        dataplane_extra_latency=0.04,
        dataplane_occupancy_slowdown=0.0005,
        packet_out_rate=7006.0,
        packet_in_rate=5531.0,
        packet_out_processing_time=0.0001,
        packet_in_processing_time=0.00002,
        forwarding_latency=0.00002,
        table_mode="priority",
    )


def reordering_switch_profile() -> SwitchProfile:
    """A switch that both replies to barriers early *and* reorders
    modifications across barriers — the worst class the paper considers,
    which only the general probing technique (and the buffering barrier
    layer) can handle."""
    profile = hp5406zl_profile()
    return profile.with_overrides(
        name="reordering-hw",
        reorders_across_barriers=True,
    )


def correct_hardware_profile() -> SwitchProfile:
    """A slow hardware switch whose barriers are nonetheless correct.

    The paper notes one of the tested switches does implement barriers
    correctly; this profile lets tests and ablations compare against it.
    """
    profile = hp5406zl_profile()
    return profile.with_overrides(
        name="correct-hw",
        barrier_mode=BarrierMode.CORRECT,
    )
