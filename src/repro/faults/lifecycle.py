"""Switch-lifecycle faults: crash and restart with a flow-table wipe.

A power or software failure takes the whole switch down: ports go dark (all
packets in or out are lost), the data-plane table is wiped, and — unless
configured otherwise — the control-plane table with it.  On restart the
switch comes back *empty*: whatever forwarding state the controller had
installed is gone until something reinstalls it, which is exactly the
recovery burden the fault-tolerance literature (and the related Megaphone
migration machinery) puts on the control plane.
"""

from __future__ import annotations

from repro.faults.base import LifecycleFault
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle via repro.switches)
    from repro.switches.base import Switch


class SwitchCrashFault(LifecycleFault):
    """Crash the switch at ``at`` seconds; restart it ``restart_after`` seconds later."""

    name = "switch-crash"
    param_defaults = {
        "at": 0.5,
        #: Seconds down before restarting; ``0`` means the switch stays dead.
        "restart_after": 0.5,
        "wipe_control_plane": True,
    }

    def validate(self) -> None:
        if self.at < 0:
            raise ValueError("at must be >= 0")
        if self.restart_after < 0:
            raise ValueError("restart_after must be >= 0")

    def schedule(self, switch: "Switch") -> None:
        self.sim.schedule_callback(max(0.0, self.at - self.sim.now),
                                   self._crash, switch)

    def _crash(self, switch: "Switch") -> None:
        switch.crash(wipe_control_plane=bool(self.wipe_control_plane))
        self.count("crashes")
        if self.restart_after > 0:
            self.sim.schedule_callback(self.restart_after, self._restore, switch)

    def _restore(self, switch: "Switch") -> None:
        switch.restore()
        self.count("restarts")


class LinkFlapFault(LifecycleFault):
    """All ports of the switch go dark for a window; its tables survive.

    Models a transient link-layer outage (optics flap, LAG reconvergence):
    for ``duration`` seconds from ``at`` every packet in or out of the
    switch is lost, but — unlike :class:`SwitchCrashFault` — the control
    connection stays up and no table is wiped, so nothing needs
    reinstalling afterwards.  Packets already serialised onto a link when
    the flap starts still arrive.  The darkness is the switch's own, timed
    state (:meth:`~repro.switches.base.Switch.flap_ports`): a packet that
    reached a dark port is lost even if its ingress delay outlasts the flap.
    """

    name = "link-flap"
    param_defaults = {"at": 0.5, "duration": 0.2}

    def validate(self) -> None:
        if self.at < 0:
            raise ValueError("at must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")

    def schedule(self, switch: "Switch") -> None:
        self.sim.schedule_callback(max(0.0, self.at - self.sim.now),
                                   self._down, switch)

    def _down(self, switch: "Switch") -> None:
        switch.flap_ports(True)
        self.count("flaps")
        self.sim.schedule_callback(self.duration, self._up, switch)

    def _up(self, switch: "Switch") -> None:
        switch.flap_ports(False)
        self.count("restores")
