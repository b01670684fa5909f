"""Self-tuning control plane: popularity + cost signals → cache/placement actions.

ROADMAP item 2 (LAWS-style adaptive serving): every cache tier and the
shard router expose *mechanisms* (byte budgets, eviction hooks, task
replication); this package supplies the *policy*.  One
:class:`CacheController` observes the live request stream and measured
rebuild/wire costs, scores cache entries GDSF-style, pre-serializes hot
composites before they are requested, and feeds the cross-shard fan-out
histogram back into hot-expert replication.

See ``docs/self-tuning.md`` for the signal → controller → actuator map.
"""

from .controller import CacheController, ControllerConfig, CostEWMA, TickReport

__all__ = ["CacheController", "ControllerConfig", "CostEWMA", "TickReport"]
