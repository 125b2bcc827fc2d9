"""The unindexed first-match classifier — test oracle for the flow table.

``FlowTable.lookup_values`` keeps an index that every mutation updates in
place; these two functions share no code with it.  They are the original
implementations, moved out of ``src/`` (``FlowTable.lookup_reference`` and
``Match.matches_packet_reference``): walk the match's constraint dict, and
scan the entries in the order the lookup discipline considers them.  The
scan also takes the ``aside`` identity ``lookup_values`` takes, by skipping
the entry that has it.
"""

from typing import Optional, Tuple

from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import Match
from repro.packet.packet import Packet


def matches_packet_reference(match: Match, packet: Packet) -> bool:
    """Whether ``packet`` satisfies every constraint of ``match``."""
    for field, (value, mask) in match.fields.items():
        if (packet.get(field) & mask) != value:
            return False
    return True


def lookup_reference(
    table: FlowTable, packet: Packet, aside: Optional[Tuple[int, Match]] = None
) -> Optional[FlowEntry]:
    """The entry that would forward ``packet``: a sorted linear scan, passing
    over the rule whose identity ``(priority, match)`` is ``aside``."""
    for entry in table.entries_sorted_for_lookup():
        if (entry.priority, entry.match) == aside:
            continue
        if matches_packet_reference(entry.match, packet):
            return entry
    return None
