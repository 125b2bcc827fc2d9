#!/usr/bin/env python3
"""The Figure 2 motivation scenario: a transient firewall bypass.

Switch B must send HTTP traffic from the untrusted host through a firewall
(rule Z) and everything else directly to the server (rule Y); switch A is
only allowed to start forwarding (rule X) once both B rules are in place.
When B acknowledges rules before its data plane applies them — and rule Z is
additionally hit by one of the multi-second installation corner cases the
paper describes — the controller flips X too early and HTTP packets reach
the server without inspection.  With RUM's data-plane acknowledgments the
flip waits and the hole never opens.

Run with::

    python examples/firewall_bypass.py
"""

from repro.analysis.report import format_table
from repro.experiments.common import firewall_session


def main() -> None:
    print("running the firewall update with barrier acknowledgments ...")
    with_barriers = firewall_session("barrier", duration=2.5).run()
    print("running the firewall update with RUM general probing ...")
    with_rum = firewall_session("general", duration=2.5).run()

    rows = []
    for run in (with_barriers, with_rum):
        rows.append([
            run.technique,
            run.metrics["http_packets_bypassing_firewall"],
            run.metrics["http_packets_at_firewall"],
            run.metrics["bulk_packets_delivered"],
        ])
    print()
    print(format_table(
        ["acknowledgments", "HTTP packets bypassing firewall",
         "HTTP packets inspected", "bulk packets delivered"],
        rows,
        title="Transient security hole during the update (cf. Figure 2)",
    ))
    print()
    bypassed = [run.metrics["http_packets_bypassing_firewall"]
                for run in (with_barriers, with_rum)]
    if bypassed[0] and not bypassed[1]:
        print("barrier acknowledgments opened a transient hole; RUM kept the policy intact.")
    else:
        print("unexpected outcome - inspect the runs above.")


if __name__ == "__main__":
    main()
