"""Parallel trial-execution engine with deterministic seeding, result
caching, and run metrics.

The runtime owns experiment execution end to end: the harness and every
table/figure/benchmark route their trial loops through
:func:`execute`, which consults the on-disk :class:`ResultCache`,
schedules work across a process pool (or serially), and records a
:class:`RunReport`'s worth of metrics.  ``runtime_session`` scopes a
:class:`RuntimeConfig` over a whole command so ``--workers`` and cache
flags need no per-function plumbing.
"""

from .autotune import ChunkAutotuner, PoolRunStats
from .cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from .executor import (
    ENGINES,
    ChunkOutcome,
    PersistentPool,
    RuntimeConfig,
    TrialResult,
    active_config,
    build_trials,
    execute,
    plan_chunks,
    runtime_session,
)
from .metrics import ChunkMetric, MetricsCollector, RunReport
from .spec import (
    SCHEMA_VERSION,
    ExperimentSpec,
    known_generators,
    rect_to_tuple,
    register_generator,
    tuple_to_rect,
)

__all__ = [
    "CACHE_DIR_ENV",
    "ChunkAutotuner",
    "ChunkMetric",
    "ENGINES",
    "ChunkOutcome",
    "ExperimentSpec",
    "MetricsCollector",
    "PersistentPool",
    "PoolRunStats",
    "ResultCache",
    "RunReport",
    "RuntimeConfig",
    "SCHEMA_VERSION",
    "TrialResult",
    "active_config",
    "build_trials",
    "default_cache_dir",
    "execute",
    "known_generators",
    "plan_chunks",
    "rect_to_tuple",
    "register_generator",
    "runtime_session",
    "tuple_to_rect",
]
