"""Module-level trial callables for the spawn-executor tests.

Spawn-method process pools receive the active task pickled through the
pool initializer; pickling a function serialises only its module-qualname
reference, so these callables must live at module level in an importable
module (closures defined inside a test body would not survive the trip).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.analysis.experiments import default_instance
from repro.core.simultaneous_low import SimLowParams, find_triangle_sim_low
from repro.runtime import (
    ParallelExecutor,
    SerialExecutor,
    build_specs,
    run_trials,
)

spawn_instance = default_instance(epsilon=0.3, k=3)


def spawn_protocol(partition, seed):
    return find_triangle_sim_low(
        partition, SimLowParams(epsilon=0.3, delta=0.2), seed=seed
    )


class NestedOutcome(NamedTuple):
    total_bits: float
    found: bool


@dataclass(frozen=True)
class NestedProtocol:
    """A protocol that runs an inner sweep of its own.

    ``inner_workers > 1`` asks for a parallel inner run; inside a pool
    worker the executor must fall back to serial execution.
    """

    inner_workers: int

    def __call__(self, partition, seed):
        executor = (
            ParallelExecutor(workers=self.inner_workers)
            if self.inner_workers > 1 else SerialExecutor()
        )
        inner = run_trials(
            spawn_protocol, spawn_instance,
            build_specs([(200, 4.0, 3)], trials=2, sweep_seed=seed),
            executor=executor,
        )
        outer = spawn_protocol(partition, seed)
        return NestedOutcome(
            outer.total_bits + sum(r.bits for r in inner),
            outer.found or any(r.found for r in inner),
        )
