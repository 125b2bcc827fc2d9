"""RUM reproduction: Reliable FIB Update Acknowledgments in SDN (CoNEXT 2014).

The package is organised bottom-up:

* :mod:`repro.sim` — discrete-event simulation kernel,
* :mod:`repro.packet`, :mod:`repro.openflow` — packets and the OpenFlow
  substrate (matches, messages, flow tables, control channels),
* :mod:`repro.switches` — switch models with separate control and data
  planes, including the buggy hardware switch the paper measures,
* :mod:`repro.net` — topologies, links, hosts, traffic and delivery
  monitoring,
* :mod:`repro.controller` — an SDN controller with dependency-ordered,
  consistent network updates,
* :mod:`repro.probing` — probe-packet generation and switch-value colouring,
* :mod:`repro.core` — **RUM itself**: the transparent proxy, the five
  acknowledgment techniques and the reliable barrier layer,
* :mod:`repro.analysis`, :mod:`repro.experiments` — measurement utilities and
  the paper's figures and tables as one catalogue (``FIGURES``),
* ``python -m repro`` — the one command line: campaigns, the run store and
  the figures.

Quickstart::

    from repro.sim import Simulator
    from repro.net import Network, triangle_topology
    from repro.core import RumLayer, get_technique
    from repro.controller import Controller

    sim = Simulator()
    network = Network(sim, triangle_topology())
    rum = RumLayer(sim, get_technique("general"), {"probe_window": 30})
    rum.attach_network(network)
    controller = Controller(sim)
    for name in network.switch_names():
        controller.connect_switch(name, rum.controller_endpoint(name))
    rum.prepare(); network.start(); rum.start()

A technique owns its parameters: its class declares the few values a run
may set (``general``: ``probe_window`` and ``probe_interval``), with the
paper's defaults, and refuses any other key or an out-of-range value.
"""

from repro.core import RumLayer, ReliableBarrierLayer, get_technique
from repro.controller import Controller
from repro.net import Network, triangle_topology
from repro.session import RunRecord, SessionSpec, run_session
from repro.sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "Controller",
    "Network",
    "ReliableBarrierLayer",
    "RumLayer",
    "RunRecord",
    "SessionSpec",
    "Simulator",
    "get_technique",
    "run_session",
    "triangle_topology",
    "__version__",
]
