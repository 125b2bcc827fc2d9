"""Configuration of the RUM layer."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.packet.fields import FIELD_REGISTRY, HeaderField


def _known_rum_techniques():
    """Registered RUM-capable technique names (import deferred: the
    technique classes import this module for their configs)."""
    from repro.core.techniques.registry import rum_technique_names

    return rum_technique_names()


@dataclass
class RumConfig:
    """All tunables of the RUM acknowledgment layer.

    The defaults follow the prototype description (Section 4) and the
    parameters used in the evaluation (Section 5): ToS-based probing, probe
    rule updated after every 10 real modifications, probing of up to the 30
    oldest unconfirmed modifications every 10 ms, a 300 ms static timeout and
    adaptive models assuming 200 or 250 modifications per second.
    """

    #: Which acknowledgment technique to run (one of
    #: :func:`~repro.core.techniques.registry.rum_technique_names`).
    technique: str = "general"

    # -- control-plane techniques -------------------------------------------
    #: Static timeout added after a barrier reply before confirming.
    timeout: float = 0.3
    #: Assumed switch modification rate of the adaptive technique (rules/s).
    assumed_rate: float = 250.0
    #: Safety margin added to every adaptive estimate (seconds).
    adaptive_margin: float = 0.0
    #: The adaptive model's estimate of the switch's control-to-data plane
    #: pipeline latency: the first modification of a burst is predicted to be
    #: active this long after it is issued.  Part of the "detailed switch
    #: performance model" the paper says the technique needs.
    adaptive_base_delay: float = 0.05
    #: How many FlowMods share one RUM-generated barrier (baseline/timeout).
    barrier_batch: int = 1

    # -- probing techniques ------------------------------------------------------
    #: Sequential probing: update the probe rule after this many real
    #: modifications (the paper uses 10 in the end-to-end experiment).
    probe_batch: int = 10
    #: Period of the probe injection timer.
    probe_interval: float = 0.01
    #: General probing: probe at most this many oldest unconfirmed
    #: modifications per round (the paper uses 30).
    probe_window: int = 30
    #: Reserved header field H used by general probing (ToS in the prototype).
    probe_field: HeaderField = HeaderField.IP_TOS
    #: Reserved header field H1 used by sequential probing.
    sequential_h1_field: HeaderField = HeaderField.VLAN_ID
    #: Reserved header field H2 (version) used by sequential probing.
    sequential_h2_field: HeaderField = HeaderField.IP_TOS
    #: Reserved H1 values marking pre- and post-probe packets.
    preprobe_value: int = 4000
    postprobe_value: int = 4001
    #: Assign network-wide unique probe-catch values instead of colouring
    #: (ablation of the colouring optimisation).
    unique_switch_values: bool = False

    # -- behaviour -------------------------------------------------------------------
    #: Emit RUM's fine-grained positive acknowledgments upstream (repurposed
    #: error messages).  RUM-aware controllers rely on these; for fully
    #: transparent deployments they can be turned off and only the reliable
    #: barrier layer is used.
    emit_confirmations: bool = True
    #: Latency of the proxy hop RUM adds between controller and switch.
    proxy_latency: float = 0.0002
    #: Fall back to the static timeout for rules general probing cannot probe.
    fallback_timeout: float = 0.3

    def validated(self) -> "RumConfig":
        """Return self after sanity-checking the parameters."""
        known = _known_rum_techniques()
        if self.technique not in known:
            raise ValueError(
                f"unknown technique {self.technique!r}; expected one of {tuple(known)}"
            )
        if self.timeout < 0 or self.fallback_timeout < 0:
            raise ValueError("timeouts must be non-negative")
        if self.assumed_rate <= 0:
            raise ValueError("assumed_rate must be positive")
        if self.probe_batch < 1 or self.probe_window < 1 or self.barrier_batch < 1:
            raise ValueError("batch/window sizes must be >= 1")
        if self.probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        h1 = FIELD_REGISTRY[self.sequential_h1_field]
        for value in (self.preprobe_value, self.postprobe_value):
            h1.validate(value)
        if self.preprobe_value == self.postprobe_value:
            raise ValueError("preprobe and postprobe values must differ")
        return self

    def with_overrides(self, **kwargs) -> "RumConfig":
        """A copy with selected fields replaced (and re-validated)."""
        return replace(self, **kwargs).validated()


def config_for_technique(technique: str, **overrides) -> RumConfig:
    """A validated config for the named technique.

    The technique's own :attr:`AckTechnique.config_defaults` are applied
    first, then ``overrides`` — so e.g. ``adaptive`` always assumes 250
    modifications/s unless the caller says otherwise, no matter which entry
    point (session, scenario engine, campaign) built the config.
    """
    from repro.core.techniques.registry import get_technique

    try:
        technique_cls = get_technique(technique)
    except KeyError:
        # An unknown name still fails RumConfig validation with the
        # historical ValueError (not KeyError) contract.
        return RumConfig(technique=technique, **overrides).validated()
    config = technique_cls.rum_config(**overrides)
    if config is None:
        raise ValueError(
            f"technique {technique!r} does not use a RUM layer and has no config"
        )
    return config
