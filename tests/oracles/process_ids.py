"""What the trace pins and the determinism gate run before each compared run."""

import itertools


def _reset_process_counters() -> None:
    """Rewind the process-global id counters to their fresh-process state.

    Xids, flow-entry ids and operation ids come from module-level
    ``itertools.count(1)`` counters: deterministic *per process*, but a
    second in-process run starts where the first left off.  Resetting them
    makes consecutive recorded runs byte-comparable — exactly what two
    fresh processes would produce — without touching any digest-bearing
    state.
    """
    from repro.controller import update_plan
    from repro.openflow import flowtable, messages
    from repro.switches import controlplane

    messages._xid_counter = itertools.count(1)
    flowtable._entry_ids = itertools.count(1)
    controlplane._op_ids = itertools.count(1)
    update_plan._operation_ids = itertools.count(1)
