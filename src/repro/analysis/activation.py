"""The activation ledger: was each rule acknowledged before it was active?

Every session ends with one :class:`LedgerRow` per plan operation ``(switch,
xid)`` (:func:`activation_ledger`; recovery's shadow replays are not rows).
A row holds the rule's *data-plane activation* — when the switch's data
plane first applied it, the ground truth of when packets start following
it — and its *control-plane activation* on two clocks: RUM's confirmation
and, one channel crossing later, the controller-visible acknowledgment.

The paper plots ``control-plane activation - data-plane activation`` per
rule: negative values mean the controller was told too early (incorrect
behaviour), positive values are wasted waiting time.  Figure 8 reads RUM's
clock on one switch (:meth:`ActivationDelays.from_ledger`); the per-switch
gap summary (:func:`repro.analysis.timeline.activation_gap_summary`) reads
the controller's on every switch; :mod:`repro.campaign.report` prints it
for one run, a diff of two and a campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.analysis.cdf import Distribution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.update_plan import UpdatePlan
    from repro.core.rum import RumLayer
    from repro.net.network import Network


class LedgerRow(NamedTuple):
    """One plan operation's activation and acknowledgment times."""

    switch: str
    xid: int
    role: str
    #: First data-plane application; ``None``: never activated.
    activated_at: Optional[float]
    #: RUM's confirmation and who gave it; ``None`` without RUM or unconfirmed.
    confirmed_at: Optional[float]
    confirmed_by: Optional[str]
    #: The controller-visible acknowledgment (``UpdateOperation.acked_at``).
    acked_at: Optional[float]


def activation_ledger(plan: "UpdatePlan", network: "Network",
                      rum: Optional["RumLayer"]) -> List[LedgerRow]:
    """One :class:`LedgerRow` per operation of ``plan``, in plan order."""
    confirmations = rum.confirmation_log if rum is not None else {}
    first_applied: Dict[str, Dict[int, float]] = {}
    rows: List[LedgerRow] = []
    for operation in plan.operations.values():
        switch, xid = operation.switch, operation.flowmod.xid
        applied = first_applied.get(switch)
        if applied is None:
            applied = first_applied[switch] = {}
            for time, applied_xid in network.switch(switch).dataplane.apply_log:
                applied.setdefault(applied_xid, time)
        _forwarded, confirmed_at, confirmed_by = confirmations.get(
            (switch, xid), (None, None, None))
        rows.append(LedgerRow(switch, xid, operation.role, applied.get(xid),
                              confirmed_at, confirmed_by, operation.acked_at))
    return rows


@dataclass
class ActivationDelays:
    """Per-rule activation delays of one technique (Figure 8)."""

    technique: str
    #: ``xid -> (data-plane activation, control-plane ack, delay)``; a rule
    #: acknowledged but never activated is ``(None, ack, None)``.
    per_rule: Dict[int, Tuple[Optional[float], float, Optional[float]]]

    @classmethod
    def from_ledger(cls, ledger: Iterable[LedgerRow], switch: str,
                    role: Optional[str], technique: str) -> "ActivationDelays":
        """Figure 8's view: the RUM-confirmed rules on ``switch`` (of ``role``)."""
        per_rule = {}
        for row in ledger:
            if (row.switch != switch or row.confirmed_at is None
                    or (role and row.role != role)):
                continue
            delay = (None if row.activated_at is None
                     else row.confirmed_at - row.activated_at)
            per_rule[row.xid] = (row.activated_at, row.confirmed_at, delay)
        return cls(technique=technique, per_rule=per_rule)

    @property
    def delays(self) -> List[float]:
        """Delays of the rules that did activate (ack time minus activation)."""
        return [delay for (_dp, _cp, delay) in self.per_rule.values()
                if delay is not None]

    @property
    def negative_count(self) -> int:
        """Rules acknowledged before they were active, or never active."""
        return sum(1 for (_dp, _cp, delay) in self.per_rule.values()
                   if delay is None or delay < 0)

    @property
    def never_negative(self) -> bool:
        """Whether the technique never acknowledged early."""
        return self.negative_count == 0

    def summary(self) -> Distribution:
        """Distribution summary of the delays."""
        return Distribution.from_values(self.delays)

    def ranked(self) -> List[Tuple[int, float]]:
        """``(rank, delay)`` pairs sorted by delay — the paper's Figure 8 axes."""
        return list(enumerate(sorted(self.delays), start=1))
