"""Secondary mechanisms: stream buffers and their Jouppi '90 siblings.

The paper's question — can a small hardware structure replace a
megabyte-class L2? — is asked here for the whole mechanism zoo, each
described by one :class:`MechanismConfig` and reporting :class:`MechStats`:

* ``streams`` — the paper's stream buffers
  (:class:`~repro.core.prefetcher.StreamPrefetcher`);
* :class:`VictimCache` — small FA buffer of L1 evictions (exclusive);
* :class:`MissCache` — small FA cache of missed blocks (inclusive);
* ``hybrid`` — serial composition (VC+SB, MC+SB).

Victim and miss caches share the event-driven :class:`SecondaryMechanism`
protocol.  :func:`repro.sim.vector.replay_secondary` is the one way to
replay any config: it dispatches stream members to the stream engines and
composes hybrids from the members' ``run_filter`` residuals.  This
package stays free of sim-layer imports so oracles and tools can use it
directly.

See ``docs/mechanisms.md`` for semantics and composition rules.
"""

from repro.mechanisms.base import (
    MECHANISM_KINDS,
    MechanismConfig,
    MechStats,
    SecondaryMechanism,
    combine_member_stats,
    mech_stats_from_streams,
    mechanism_from_dict,
    mechanism_label,
    mechanism_to_dict,
    parse_mechanism_spec,
)
from repro.mechanisms.misscache import MissCache
from repro.mechanisms.victim import VictimCache

__all__ = [
    "MECHANISM_KINDS",
    "MechanismConfig",
    "MechStats",
    "SecondaryMechanism",
    "mechanism_label",
    "mechanism_to_dict",
    "mechanism_from_dict",
    "parse_mechanism_spec",
    "build_mechanism",
    "combine_member_stats",
    "MissCache",
    "mech_stats_from_streams",
    "VictimCache",
]


def build_mechanism(config: MechanismConfig) -> SecondaryMechanism:
    """Instantiate the victim or miss cache described by ``config``.

    Stream and hybrid configs have no per-event object: replay them
    through :func:`repro.sim.vector.replay_secondary`.
    """
    if config.kind == "victim":
        return VictimCache(config)
    if config.kind == "misscache":
        return MissCache(config)
    raise ValueError(
        f"no per-event mechanism for kind {config.kind!r}; "
        "replay it through repro.sim.vector.replay_secondary"
    )
