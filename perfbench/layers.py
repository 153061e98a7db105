"""Layer spans for the traced run, and the result taps every run carries.

Both work by replacing callables of the ``repro`` package from the
outside, so the program under test is unchanged:

* :class:`Patches` swaps a function at *every* module that binds it
  (``from x import f`` copies the reference, so patching only the
  defining module would miss the call sites) and a method on its class,
  and puts every original back on exit.
* :class:`SelfTimer` times wrapped calls on an in-memory span stack:
  a span's self time is its duration minus the spans it encloses, so the
  self times of nested layers add up to the enclosing wall clock.
* :class:`ResultTap` keeps every ``run_trials`` record list and checks
  every protocol outcome that reports a triangle (or a pattern copy)
  against the instance it ran on.  It reads no clock, so the untraced
  run carries it at a cost of a few hundred calls per workload.

:data:`LAYER_SPANS` is the layer → callable → metric map the benchmark
reports; ``perfbench/README.md`` explains which end-to-end metric each
one should move.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "Span",
    "LAYER_SPANS",
    "PROTOCOL_ENTRIES",
    "SELF_TIME_KEYS",
    "GateFailure",
    "Patches",
    "SelfTimer",
    "ResultTap",
    "import_all_repro_modules",
    "instrumented",
]


@dataclass(frozen=True)
class Span:
    """One wrapped callable and the metrics its calls feed.

    ``target`` is ``"module:name"`` for a function or
    ``"module:Class.method"`` for a method.  ``time_key`` collects self
    time; ``count_key`` counts calls, except calls made directly from a
    span with the same count key (a mask form delegating to its list
    form is one draw, not two).  ``weight`` turns a call's arguments into
    its count.  ``track_max`` keeps the longest inclusive duration.
    ``returns_callable`` names the count key of the closure the call
    returns (a coin factory), which is then wrapped under the same
    ``time_key``.  ``bytes_key`` sums the adjacency bytes of the
    instances the call returns.
    """

    target: str
    time_key: str
    count_key: str | None = None
    weight: Callable[[tuple], int] | None = None
    track_max: bool = False
    returns_callable: str | None = None
    bytes_key: str | None = None


def _players_polled(args: tuple) -> int:
    # CoordinatorRuntime.collect runs one round per player.
    return len(args[0].players)


_GEN = ("graphs.generate_s", "graphs.generate_calls")
_PROTOCOL = ("core.protocol_s", "core.protocol_calls")
_HARVEST = ("comm.players.harvest_s", "comm.players.harvest_calls")
_SUBSET = ("comm.randomness.coins_s", "comm.randomness.subset_draws")
_BATCH = ("runtime.batch_s", "runtime.batches")

#: Protocol entry points: traced as ``core.protocol_s`` and checked by
#: :class:`ResultTap` in every run.
PROTOCOL_ENTRIES = (
    "repro.core.simultaneous_low:find_triangle_sim_low",
    "repro.core.simultaneous_high:find_triangle_sim_high",
    "repro.core.oblivious:find_triangle_sim_oblivious",
    "repro.core.unrestricted:find_triangle_unrestricted",
    "repro.core.subgraph_detection:find_subgraph_simultaneous",
    "repro.core.exact_baseline:exact_triangle_detection",
)

LAYER_SPANS = (
    # graphs: instance build
    Span("repro.graphs.generators:far_instance", *_GEN),
    Span("repro.graphs.generators:triangle_free_degree_spread", *_GEN),
    Span("repro.patterns.plant:planted_disjoint_subgraphs", *_GEN),
    Span("repro.graphs.partition:partition_disjoint",
         "graphs.partition_s", "graphs.partition_calls",
         bytes_key="graphs.instance_bytes"),
    Span("repro.graphs.partition:EdgePartition.adjacency_rows",
         "graphs.player_rows_s", "graphs.player_rows_calls"),
    # comm.randomness: public coins
    Span("repro.comm.randomness:SharedRandomness.permutation_rank",
         "comm.randomness.coins_s",
         returns_callable="comm.randomness.rank_evals"),
    Span("repro.comm.randomness:SharedRandomness.bernoulli_predicate",
         "comm.randomness.coins_s",
         returns_callable="comm.randomness.pred_evals"),
    Span("repro.comm.randomness:SharedRandomness.bernoulli_subset", *_SUBSET),
    Span("repro.comm.randomness:SharedRandomness.bernoulli_subset_mask",
         *_SUBSET),
    Span("repro.comm.randomness:SharedRandomness.sample_without_replacement",
         *_SUBSET),
    Span("repro.comm.randomness:"
         "SharedRandomness.sample_without_replacement_mask", *_SUBSET),
    # comm.players: harvest
    Span("repro.comm.players:Player.first_vertex_under_rank", *_HARVEST),
    Span("repro.comm.players:Player.suspected_bucket", *_HARVEST),
    Span("repro.comm.players:Player.edges_within_mask", *_HARVEST),
    Span("repro.comm.players:Player.edges_touching_both_mask", *_HARVEST),
    Span("repro.comm.players:Player.edges_at_vertex_in_mask", *_HARVEST),
    Span("repro.comm.players:Player.local_neighbor_mask", *_HARVEST),
    # comm.coordinator: ledger and rounds
    Span("repro.comm.coordinator:CoordinatorRuntime.collect",
         "comm.coordinator.collect_s", "comm.coordinator.rounds",
         weight=_players_polled),
    Span("repro.comm.coordinator:CoordinatorRuntime.collect_from",
         "comm.coordinator.collect_s", "comm.coordinator.rounds"),
    # core: referee and protocol entry points
    Span("repro.core.referee:rows_union_triangle_referee",
         "core.referee_s", "core.referee_calls"),
    Span("repro.core.referee:rows_union_subgraph_referee",
         "core.referee_s", "core.referee_calls"),
    *(Span(target, *_PROTOCOL) for target in PROTOCOL_ENTRIES),
    # runtime: batches and the journal
    Span("repro.runtime.executor:TrialTask.run_batch", *_BATCH,
         track_max=True),
    Span("repro.runtime.executor:TrialTask.run_batch_supervised", *_BATCH,
         track_max=True),
    Span("repro.runtime.journal:RunJournal.record",
         "runtime.journal_s", "runtime.journal_appends"),
)

#: The self-time metrics that, with ``runtime.overhead_s``, partition the
#: traced wall clock.  ``runtime.batch_s`` (batch bookkeeping outside its
#: builds and protocols) is deliberately left to the overhead remainder.
SELF_TIME_KEYS = (
    "graphs.generate_s",
    "graphs.partition_s",
    "graphs.player_rows_s",
    "comm.randomness.coins_s",
    "comm.players.harvest_s",
    "comm.coordinator.collect_s",
    "core.referee_s",
    "core.protocol_s",
    "runtime.journal_s",
)


class GateFailure(RuntimeError):
    """A correctness condition of the benchmark does not hold."""


def import_all_repro_modules() -> None:
    """Import every module of the ``repro`` package.

    Patching scans the loaded modules; a module first imported while
    patches are live would bind a wrapper and keep it after restore.
    """
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _resolve(target: str) -> tuple[object, str]:
    """``"module:Class.method"`` → (owner, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *classes, name = path.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    return owner, name


class Patches:
    """Replace callables at every binding site; :meth:`restore` undoes all.

    A function is replaced in every loaded ``repro`` module whose
    namespace holds the very same object, which covers ``from … import``
    call sites as well as the defining module.  A method is replaced on
    its class, which every instance and subclass reaches.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, target: str,
                make_wrapper: Callable[[Callable], Callable]) -> None:
        owner, name = _resolve(target)
        original = vars(owner)[name]
        wrapper = make_wrapper(original)
        if inspect.isclass(owner):
            self._set(owner, name, wrapper)
            return
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class SelfTimer:
    """Per-key self time and call counts from an in-memory span stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.max_s: defaultdict[str, float] = defaultdict(float)
        # One frame per open span: [count_key, seconds spent in children].
        self._stack: list[list] = []

    def wrap(self, fn: Callable, span: Span) -> Callable:
        from repro.runtime.cache import instance_nbytes

        stack = self._stack
        clock = self.clock
        self_s = self.self_s
        counts = self.counts
        max_s = self.max_s
        time_key = span.time_key
        count_key = span.count_key
        weight = span.weight
        track_max = span.track_max
        returns = span.returns_callable
        bytes_key = span.bytes_key
        closure_span = (
            Span("", time_key, returns) if returns is not None else None
        )

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if count_key is not None and (
                    not stack or stack[-1][0] != count_key):
                counts[count_key] += 1 if weight is None else weight(args)
            frame = [count_key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self_s[time_key] += elapsed - frame[1]
                if track_max and elapsed > max_s[time_key]:
                    max_s[time_key] = elapsed
            if bytes_key is not None:
                counts[bytes_key] += instance_nbytes(result)
            if closure_span is not None:
                return self.wrap(result, closure_span)
            return result

        return spanned

    def install(self, patches: Patches) -> None:
        for span in LAYER_SPANS:
            patches.replace(span.target, lambda fn, s=span: self.wrap(fn, s))

    def attributed_s(self) -> float:
        """Seconds covered by the :data:`SELF_TIME_KEYS` spans."""
        return sum(self.self_s[key] for key in SELF_TIME_KEYS)


class ResultTap:
    """Keeps run_trials records and checks protocol outcomes.

    ``records`` is every record list ``run_trials`` returned, in call
    order, each labelled with :attr:`label` at the time of the call.
    Every outcome with ``found=True`` must be a triangle (or, for
    pattern detection, a copy of the pattern) of the protocol's input
    graph; a violation raises :class:`GateFailure` inside the protocol
    call, which fails the trial and therefore the run.
    """

    def __init__(self) -> None:
        self.label = ""
        self.records: list[tuple[str, list]] = []
        self.outcomes = 0
        self.found = 0
        self.backends: set[str] = set()

    def install(self, patches: Patches) -> None:
        patches.replace("repro.runtime.executor:run_trials", self._capture)
        for target in PROTOCOL_ENTRIES:
            patches.replace(target, self._check)

    def _capture(self, run_trials: Callable) -> Callable:
        @functools.wraps(run_trials)
        def captured(*args, **kwargs):
            results = run_trials(*args, **kwargs)
            self.records.append((self.label, list(results)))
            return results

        return captured

    def _check(self, protocol: Callable) -> Callable:
        signature = inspect.signature(protocol)

        @functools.wraps(protocol)
        def checked(*args, **kwargs):
            outcome = protocol(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            graph = bound.arguments["partition"].graph
            self.outcomes += 1
            self.backends.add(graph.backend)
            if outcome.found:
                self.found += 1
                if hasattr(outcome, "triangle"):
                    a, b, c = outcome.triangle
                    pairs = [(a, b), (b, c), (a, c)]
                    copy = (a, b, c)
                else:
                    copy = outcome.copy
                    pattern = bound.arguments["pattern"]
                    pairs = [(copy[u], copy[v]) for u, v in pattern.edges]
                if len(set(copy)) != len(copy) or not all(
                        graph.has_edge(u, v) for u, v in pairs):
                    raise GateFailure(
                        f"{protocol.__name__} reported {copy}, which is not "
                        "a copy of its pattern in the input graph"
                    )
            return outcome

        return checked

    def relabel(self, old: str, new: str) -> None:
        self.records = [
            (new if label == old else label, records)
            for label, records in self.records
        ]

    def rows(self) -> dict[str, list]:
        """Records grouped by label, in first-seen order."""
        grouped: dict[str, list] = {}
        for label, records in self.records:
            grouped.setdefault(label, []).extend(records)
        return grouped

    def all_records(self) -> list:
        return [r for _, records in self.records for r in records]


@contextlib.contextmanager
def instrumented(tap: ResultTap,
                 timer: SelfTimer | None = None) -> Iterator[None]:
    """Install the tap (and the layer spans, given a timer); restore on exit."""
    import_all_repro_modules()
    patches = Patches()
    try:
        tap.install(patches)
        if timer is not None:
            timer.install(patches)
        yield
    finally:
        patches.restore()
