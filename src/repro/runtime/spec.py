"""Trial data model: what to run (`TrialSpec`) and what happened
(`TrialResult`).

Specs and results are plain frozen dataclasses of primitives so they
cross process boundaries cheaply — the heavyweight objects (graphs,
partitions, protocol closures) never travel; workers rebuild them from
the spec's seed.  One seed per trial drives both the trial's instance
and its public coins, so a spec alone determines its record.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Sequence

from repro.runtime.seeding import derive_seed

__all__ = [
    "TrialSpec",
    "TrialResult",
    "TrialBatch",
    "build_specs",
    "batch_specs",
]


@dataclass(frozen=True)
class TrialSpec:
    """One trial to execute: a grid point, a trial index, a derived seed.

    ``seed`` drives both instance generation and protocol coins, exactly
    as the serial harness always did, so any two protocols given the same
    spec see the same input instance.

    ``instance_seed`` optionally decouples instance generation from the
    protocol coins, for callers that build specs by hand (the one-way
    protocol curves in :mod:`repro.lowerbounds.oneway_protocols`).
    ``None`` — what :func:`build_specs` always produces — keeps the
    historical coupling.
    """

    point_index: int
    trial_index: int
    n: int
    d: float
    k: int
    seed: int
    instance_seed: int | None = None

    @property
    def effective_instance_seed(self) -> int:
        """The seed instance generation actually uses."""
        return self.seed if self.instance_seed is None else self.instance_seed


@dataclass(frozen=True)
class TrialResult:
    """One trial's outcome, echoing the spec coordinates it came from.

    ``extras`` holds optional per-trial metrics (picklable primitives
    only) recorded by a :class:`~repro.runtime.executor.TrialTask`
    metrics hook.

    ``status`` / ``error`` are the supervised engine's structured
    failure channel: ``"ok"`` (the only status an unsupervised run
    ever produces) carries a real measurement, while ``"error"`` and
    ``"timeout"`` records stand in for trials whose every retry failed —
    the sweep survives and reports *what* failed instead of dying.
    Failed records carry ``bits=0.0`` / ``found=False`` placeholders and
    are excluded from sweep aggregation.
    """

    point_index: int
    trial_index: int
    n: int
    d: float
    k: int
    seed: int
    bits: float
    found: bool
    extras: dict = field(default_factory=dict)
    status: str = "ok"
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    # Byte-identity across process boundaries: default-valued
    # ``status``/``error`` are omitted from the pickled state (an ok
    # record pickles to exactly the bytes it did before these fields
    # existed), and a restored status is interned so every record —
    # serial, parallel, resumed — shares the one code-constant string
    # object.  Without this, each pipe crossing would mint a fresh
    # ``"ok"`` and the pickled bytes of a record *list* would depend on
    # which worker produced which record.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        if state["status"] == "ok":
            del state["status"]
        if state["error"] is None:
            del state["error"]
        return state

    def __setstate__(self, state: dict) -> None:
        # Intern the attribute names as well: the default (no
        # ``__setstate__``) unpickling path interns state-dict keys, and
        # re-pickling a record list leans on that sharing.
        clean = {sys.intern(key): value for key, value in state.items()}
        clean["status"] = sys.intern(clean.get("status", "ok"))
        clean.setdefault("error", None)
        self.__dict__.update(clean)

    @classmethod
    def from_outcome(cls, spec: TrialSpec, bits: float, found: bool,
                     extras: dict | None = None) -> "TrialResult":
        return cls(
            point_index=spec.point_index,
            trial_index=spec.trial_index,
            n=spec.n,
            d=spec.d,
            k=spec.k,
            seed=spec.seed,
            bits=float(bits),
            found=bool(found),
            extras=dict(extras) if extras else {},
        )

    @classmethod
    def from_error(cls, spec: TrialSpec, error: object,
                   status: str = "error") -> "TrialResult":
        """A structured failure record for ``spec``.

        ``error`` may be an exception or a pre-formatted string.  The
        text must be deterministic for a given failure (no timings, no
        attempt counters) so supervised serial and parallel runs surface
        byte-identical error records.
        """
        text = (
            error if isinstance(error, str)
            else f"{type(error).__name__}: {error}"
        )
        return cls(
            point_index=spec.point_index,
            trial_index=spec.trial_index,
            n=spec.n,
            d=spec.d,
            k=spec.k,
            seed=spec.seed,
            bits=0.0,
            found=False,
            extras={},
            status=status,
            error=text,
        )


@dataclass(frozen=True)
class TrialBatch:
    """The execution engine's unit of work: all trials of one grid point
    (``batch=True``), or a single trial (``batch=False``).

    A parallel run hands whole batches to workers; records are
    byte-identical whichever way the specs were grouped.
    """

    point_index: int
    specs: tuple[TrialSpec, ...]

    def __len__(self) -> int:
        return len(self.specs)


def build_specs(grid: Sequence[tuple[int, float, int]], trials: int,
                sweep_seed: int) -> list[TrialSpec]:
    """Expand an (n, d, k) grid into one spec per (point, trial).

    Specs come out in deterministic row-major order — point major, trial
    minor — which is also the order executors return results in.  Every
    trial gets its own seed, so every trial runs on a fresh instance
    with fresh public coins.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    return [
        TrialSpec(
            point_index=point_index,
            trial_index=trial_index,
            n=n,
            d=d,
            k=k,
            seed=derive_seed(sweep_seed, point_index, trial_index),
        )
        for point_index, (n, d, k) in enumerate(grid)
        for trial_index in range(trials)
    ]


def batch_specs(specs: Sequence[TrialSpec]) -> list[TrialBatch]:
    """Group specs into per-grid-point batches, first-seen point order.

    Within a batch, specs keep their relative order, so flattening the
    batches of a point-major spec list reproduces the list exactly.
    """
    groups: dict[int, list[TrialSpec]] = {}
    for spec in specs:
        groups.setdefault(spec.point_index, []).append(spec)
    return [
        TrialBatch(point_index=point, specs=tuple(members))
        for point, members in groups.items()
    ]
