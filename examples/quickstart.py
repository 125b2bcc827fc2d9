#!/usr/bin/env python3
"""Quickstart: put RUM between a controller and a buggy hardware switch.

The script builds the paper's triangle topology (two software switches, one
hardware switch whose barrier replies precede data-plane visibility), inserts
the RUM acknowledgment layer configured for general probing, installs a
handful of rules on the hardware switch as an update plan, and prints — per
rule, from the run's activation ledger — when the switch's data plane
actually started forwarding packets according to it and when RUM confirmed
it.  The confirmation is never
early; swap ``general`` for ``barrier`` below to watch the unsafe baseline.

A technique owns its parameters: its class declares the values a run may
set, with the paper's defaults (``get_technique("general").parameters`` lists
``probe_window`` and ``probe_interval``; pass ``{"probe_interval": 0.02}`` as
``RumLayer``'s third argument to set one), and refuses any other.

Run with::

    python examples/quickstart.py [technique]
"""

import sys

from repro.analysis.activation import ActivationDelays, activation_ledger
from repro.controller import AckMode, Controller
from repro.controller.update_plan import PlanExecutor, UpdatePlan
from repro.core import RumLayer, get_technique
from repro.net import Network, triangle_topology
from repro.openflow import FlowMod, Match, OutputAction
from repro.packet.addresses import int_to_ip
from repro.sim import Simulator


def main(technique: str = "general") -> None:
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=1)

    # RUM transparently interposes on every switch's control channel.
    rum = RumLayer(sim, get_technique(technique))
    rum.attach_network(network)

    controller = Controller(sim, ack_mode=AckMode.RUM_CONFIRMATION)
    for switch_name in network.switch_names():
        controller.connect_switch(switch_name, rum.controller_endpoint(switch_name))

    rum.prepare()
    network.start()
    rum.start()

    # Install 30 independent forwarding rules on the hardware switch S2.
    out_port = network.port_between("S2", "S3")
    plan = UpdatePlan(name="quickstart")
    for index in range(30):
        plan.add("S2", FlowMod(
            Match(ip_src=int_to_ip(0x0A000001 + index), ip_dst="10.0.128.1"),
            [OutputAction(out_port)],
            priority=100,
        ))
    PlanExecutor(sim, controller, plan, max_unconfirmed=30).start()
    sim.run(until=5.0)

    ledger = activation_ledger(plan, network, rum)
    delays = ActivationDelays.from_ledger(ledger, "S2", None, technique)
    print(f"technique: {rum.describe()}")
    print(f"acknowledged rules: {sum(1 for row in ledger if row.acked_at is not None)}"
          f"/{len(ledger)}")
    print("rule  data-plane active [s]  RUM confirmation [s]  delay [ms]")
    for index, row in enumerate(ledger):
        applied, confirmed, delay = delays.per_rule[row.xid]
        print(f"{index:4d}  {applied:20.4f}  {confirmed:20.4f}  {delay * 1000:10.1f}")
    verdict = "never early" if delays.never_negative else (
        f"EARLY for {delays.negative_count} rules (unsafe!)"
    )
    print(f"\nacknowledgments were {verdict}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "general")
