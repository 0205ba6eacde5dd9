"""The Table 4 search under its analytic-path name.

:func:`min_matching_l2_size_analytic` is
:func:`repro.sim.compare.min_matching_l2_size`: the exact L2 ladder of
one per-set stack-distance pass per (set count, block size) leaves no
configuration to estimate or skip.  ``replay_streams`` and
``replay_secondary`` stay importable here, as in :mod:`repro.sim.compare`
and :mod:`repro.sim.parallel`, for tools that wrap the replay entry
points of every search module (the traced ``perfbench`` run does).
"""

from __future__ import annotations

from repro.sim.compare import min_matching_l2_size
from repro.sim.vector import replay_secondary, replay_streams

__all__ = ["min_matching_l2_size_analytic"]

min_matching_l2_size_analytic = min_matching_l2_size
