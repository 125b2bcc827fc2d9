"""The data-plane hop as a specification, and a tap that feeds it a real run.

:func:`replay` *states* what links and switches do to packets; it shares no
code with ``repro.net.link`` or ``Switch.receive_packet`` (tables and action
lists are the repository's own — they are not what is specified here):

* a packet sent at ``t`` on a link direction free at ``b`` leaves the wire at
  ``max(t, b) + 8·size/bandwidth + latency``; the direction is free again
  when the last bit is on the wire;
* it is lost iff the receiving switch's ports are dark at that instant
  (crashed or flapped; an edge at that very instant has happened);
* otherwise it is matched ``forwarding_latency`` later against the tables as
  they stand *then* — unless the switch is crashed then — and leaves on the
  action's port at that same instant; flapped ports emit nothing; a host
  takes delivery the instant the packet leaves the wire.

:class:`Recorder` taps what enters the data plane of every ``Network`` built
while it is installed (host sends, PacketOut injections, data-plane rule
changes, crash / restore / flap edges) and what comes out (deliveries,
PacketIns, and per switch the packets it took in and dropped), so a test can
run anything — a hypothesis script or a whole experiment — and ask the model
for the same answers.  Every hop, whether the switch finds its forwarding
plan cached or not, passes ``Switch.receive_packet``, and that is where the
tap counts: a packet was taken in on a lit port if its trace moved on to the
switch, and dropped if the switch was up and the hop emitted nothing — no
PacketIn (``_send_packet_in``), nothing to an attached port (the transmit
``attach_port`` was given) or to any other (``_transmit``).
"""

from collections import Counter, defaultdict
from heapq import heapify, heappop, heappush
from itertools import count

from repro.net.host import Host
from repro.net.network import Network
from repro.openflow.actions import compile_actions, rewritten
from repro.openflow.constants import CONTROLLER_PORT, FLOOD_PORT
from repro.openflow.flowtable import FlowTable
from repro.packet.fields import FIELD_INDEX, HeaderField
from repro.switches.base import Switch
from repro.switches.dataplane import DataPlane

_IN_PORT = FIELD_INDEX[HeaderField.IN_PORT]


def apply_actions(packet, actions):
    """Give ``packet`` its rewritten header tuple and return its output ports
    (see ``compile_actions``); an empty list means the packet is dropped."""
    rewrites, ports = compile_actions(actions)
    if rewrites:
        packet._values = rewritten(packet._values, rewrites)
    return list(ports)


def _identity(packet):
    return (packet.flow_id, packet.sequence, packet.created_at, packet.is_probe,
            packet._values)


def replay(network, inputs):
    """``inputs``: time-ordered ``(time, kind, node name, payload)``.  Returns
    ``(deliveries, packet_ins, drops per switch, lit arrivals per switch)``."""
    wire = {}
    for link in network.links:
        wire[link.node_a.name, link.port_a] = (link.node_b.name, link.port_b, link)
        wire[link.node_b.name, link.port_b] = (link.node_a.name, link.port_a, link)
    uplink = {name: port for name, port in wire if name in network.hosts}
    ingress = {name: switch.profile.forwarding_latency
               for name, switch in network.switches.items()}
    tables = {name: FlowTable(mode=switch.profile.table_mode)
              for name, switch in network.switches.items()}
    crashed, flapped, free = set(), set(), defaultdict(float)
    deliveries, packet_ins, drops, received = [], [], Counter(), Counter()
    events = [(time, index, kind, node, payload)
              for index, (time, kind, node, payload) in enumerate(inputs)]
    heapify(events)
    order = count(len(events))  # what a node causes comes after what it was told

    def emit(now, node, packet, ports, in_port):
        for port in ports:
            assert port != FLOOD_PORT, "the model does not flood"
            if port == CONTROLLER_PORT:
                packet_ins.append((now, node, in_port, _identity(packet)))
            elif (node, port) in wire and node not in flapped:
                peer, peer_port, link = wire[node, port]
                sent = max(now, free[node, port])
                if link.bandwidth_bps:
                    sent += packet.total_size * 8 / link.bandwidth_bps
                free[node, port] = sent
                heappush(events, (sent + link.latency, next(order), "arrive", peer,
                                  (packet, peer_port)))

    while events:
        now, _, kind, node, payload = heappop(events)
        if kind == "send":
            payload.trace = payload.trace[node]
            emit(now, node, payload, [uplink[node]], None)
        elif kind == "arrive":
            packet, in_port = payload
            if node not in ingress:
                packet.trace = packet.trace[node]
                deliveries.append((now, node, _identity(packet), packet.trace.names))
            elif node not in crashed and node not in flapped:
                received[node] += 1
                packet.trace = packet.trace[node]
                heappush(events, (now + ingress[node], next(order), "due", node, payload))
        elif kind == "due" and node not in crashed:
            packet, in_port = payload
            values = list(packet._values)
            values[_IN_PORT] = in_port
            entry = tables[node].lookup_values(values)
            ports = apply_actions(packet, entry.actions) if entry is not None else []
            if not ports:
                drops[node] += 1
            emit(now, node, packet, ports, in_port)
        elif kind == "inject" and node not in crashed:
            packet, actions, in_port = payload
            emit(now, node, packet, apply_actions(packet, actions), in_port)
        elif kind == "rule":
            tables[node].apply_flowmod(payload, now)
        elif kind == "crash":
            crashed.add(node)
            tables[node].clear()
        elif kind == "restore":
            crashed.discard(node)
        elif kind == "flap":
            (flapped.add if payload else flapped.discard)(node)
    return sorted(deliveries), sorted(packet_ins), dict(drops), dict(received)


class Recording:
    """One network's data-plane inputs and outputs, as they happened."""

    def __init__(self, network):
        self.network = network
        self.inputs, self.deliveries, self.packet_ins = [], [], []
        self.drops, self.received = Counter(), Counter()

    def observed(self):
        """What :func:`replay` must reproduce (counts as of now)."""
        return (sorted(self.deliveries), sorted(self.packet_ins), dict(self.drops),
                dict(self.received))

    def predicted(self):
        return replay(self.network, self.inputs)


class Recorder:
    """Taps every :class:`Network` built while installed (see the module docstring)."""

    def __init__(self, monkeypatch):
        self.recordings = []
        by_sim, by_dataplane = {}, {}

        def tap(owner, name, before=None, after=None):
            original = getattr(owner, name)

            def tapped(self, *args, **kwargs):
                if before is not None:
                    before(self, *args, **kwargs)
                result = original(self, *args, **kwargs)
                if after is not None:
                    after(self, *args, **kwargs)
                return result

            monkeypatch.setattr(owner, name, tapped)

        def built(network, *_args, **_kwargs):
            recording = by_sim[network.sim] = Recording(network)
            self.recordings.append(recording)
            for name, switch in network.switches.items():
                by_dataplane[switch.dataplane] = (recording, name)

        def told(kind, payload=lambda *args: None):
            def record(node, *args, **_kwargs):
                by_sim[node.sim].inputs.append(
                    (node.sim.now, kind, node.name, payload(*args)))
            return record

        def rule_applied(dataplane, flowmod, *_args, **_kwargs):
            if dataplane in by_dataplane:  # a switch built outside any Network
                recording, name = by_dataplane[dataplane]
                recording.inputs.append((recording.network.sim.now, "rule", name, flowmod))

        def delivered(host, packet, *_args):
            by_sim[host.sim].deliveries.append(
                (host.sim.now, host.name, _identity(packet), packet.trace.names))

        # One flag per hop being taken in: has it emitted anything yet?
        emitting = []

        def emitted(*_args):
            if emitting:  # not a PacketOut's
                emitting[-1] = True

        def punted(switch, packet, in_port):
            emitted()
            by_sim[switch.sim].packet_ins.append(
                (switch.sim.now, switch.name, in_port, _identity(packet)))

        receive, attach = Switch.receive_packet, Switch.attach_port

        def hop(switch, packet, in_port, arrived_at):
            trace, crashed = packet.trace, switch.crashed
            emitting.append(False)
            try:
                receive(switch, packet, in_port, arrived_at)
            finally:
                sent = emitting.pop()
            recording = by_sim.get(switch.sim)
            if recording is None or packet.trace is trace:
                return  # a switch built outside any Network, or dark at the arrival
            recording.received[switch.name] += 1
            # A drop: matched nothing, or a rule that sends the packet nowhere.
            if not crashed and not sent:
                recording.drops[switch.name] += 1

        def attach_port(switch, port_no, transmit):
            def sent(packet):
                emitted()
                transmit(packet)

            attach(switch, port_no, sent)

        tap(Network, "__init__", after=built)
        tap(Host, "send", before=told("send", lambda packet: packet.copy()))
        tap(Switch, "inject_packet", before=told(
            "inject", lambda packet, actions, in_port: (packet.copy(), actions, in_port)))
        tap(DataPlane, "apply_flowmod", after=rule_applied)
        tap(Switch, "crash", before=told("crash"))
        tap(Switch, "restore", before=told("restore"))
        tap(Switch, "flap_ports", before=told("flap", lambda down: down))
        tap(Host, "receive_packet", after=delivered)
        tap(Switch, "_send_packet_in", before=punted)
        tap(Switch, "_transmit", before=emitted)
        monkeypatch.setattr(Switch, "receive_packet", hop)
        monkeypatch.setattr(Switch, "attach_port", attach_port)
