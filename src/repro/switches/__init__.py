"""Switch models.

The paper's observation is that OpenFlow switches maintain *two* views of the
forwarding state: the control-plane view (what the switch agent believes, and
what barriers/statistics report) and the data-plane view (what packets
actually hit, e.g. TCAM contents).  On several hardware switches the data
plane lags the control plane by 100-300 ms and barrier replies are emitted
from the control-plane view, which breaks every consistent-update scheme.

:class:`~repro.switches.profiles.SwitchProfile` captures the externally
observable behaviour of a switch: how fast it processes FlowMods, when it
answers barriers, how and when control-plane state is synchronised into the
data plane, whether it reorders modifications across barriers, and how fast
it handles PacketIn/PacketOut.  :class:`~repro.switches.base.Switch` is the
simulation model parameterised by a profile;
:class:`~repro.switches.software.SoftwareSwitch` and
:class:`~repro.switches.hardware.HardwareSwitch` are the two concrete
configurations used throughout the evaluation.
"""

from repro.switches.profiles import (
    BarrierMode,
    DataPlaneSyncModel,
    SwitchProfile,
    correct_hardware_profile,
    hp5406zl_profile,
    reordering_switch_profile,
    software_switch_profile,
)
from repro.switches.base import Switch
from repro.switches.dataplane import DataPlane, ForwardingResult
from repro.switches.controlplane import ControlPlane, PendingOperation
from repro.switches.software import SoftwareSwitch
from repro.switches.hardware import HardwareSwitch

__all__ = [
    "BarrierMode",
    "ControlPlane",
    "DataPlane",
    "DataPlaneSyncModel",
    "ForwardingResult",
    "HardwareSwitch",
    "PendingOperation",
    "SoftwareSwitch",
    "Switch",
    "SwitchProfile",
    "correct_hardware_profile",
    "hp5406zl_profile",
    "reordering_switch_profile",
    "software_switch_profile",
]
