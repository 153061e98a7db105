"""Tests for the parallel experiment runtime (repro.runtime).

The three guarantees the runtime makes:

(a) serial and parallel executors yield byte-identical TrialResult
    streams for the same sweep seed;
(b) seed derivation is stable across process boundaries;
(c) the instance cache is hit when two protocols share a grid point.
"""

from __future__ import annotations

import multiprocessing
import pickle
import subprocess
import sys
import weakref
from typing import NamedTuple

import pytest

import spawn_helpers

from repro.analysis.experiments import default_instance, run_sweep
from repro.core.simultaneous_low import SimLowParams, find_triangle_sim_low
from repro.runtime import (
    InstanceCache,
    ParallelExecutor,
    SerialExecutor,
    TrialBatch,
    TrialResult,
    TrialSpec,
    TrialTask,
    batch_specs,
    build_specs,
    default_executor,
    derive_seed,
    resolve_workers,
    run_trials,
)

GRID = [(200, 4.0, 3), (400, 4.0, 3)]


@pytest.fixture(autouse=True)
def _isolate_workers_env(monkeypatch):
    """An ambient REPRO_WORKERS must not reroute the executor-sensitive
    assertions below (cache counters live in the parent process only)."""
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


def sim_low_protocol(partition, seed):
    return find_triangle_sim_low(
        partition, SimLowParams(epsilon=0.3, delta=0.2), seed=seed
    )


def raising_protocol(partition, seed):
    raise ValueError("protocol failure")


_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

UNSUPERVISED_EXECUTORS = [
    pytest.param(SerialExecutor, id="serial"),
    pytest.param(
        lambda: ParallelExecutor(workers=2, start_method="fork"), id="fork",
        marks=pytest.mark.skipif(not _HAS_FORK, reason="fork unavailable"),
    ),
]


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)

    def test_coordinates_distinguish(self):
        seeds = {
            derive_seed(s, p, t)
            for s in range(4) for p in range(4) for t in range(4)
        }
        assert len(seeds) == 64

    def test_stream_labels_split(self):
        assert derive_seed(1, 2, 3, "a") != derive_seed(1, 2, 3, "b")

    def test_non_negative_64bit(self):
        seed = derive_seed(12345, 999, 999)
        assert 0 <= seed < 2 ** 63

    def test_stable_across_process_boundaries(self):
        """The derivation must not depend on interpreter hash state."""
        import json
        import os
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        coords = [[0, 0, 0], [7, 3, 1], [104729, 12, 4]]
        script = (
            "import json; from repro.runtime import derive_seed; "
            f"print(json.dumps([derive_seed(*c) for c in {coords!r}]))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src
        # A different hash seed would change the output if the derivation
        # leaned on hash() anywhere.
        env["PYTHONHASHSEED"] = "12345"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        )
        child = json.loads(out.stdout.strip())
        assert child == [derive_seed(*c) for c in coords]


class TestSpecs:
    def test_build_specs_shape_and_order(self):
        specs = build_specs(GRID, trials=3, sweep_seed=5)
        assert len(specs) == 6
        assert [(s.point_index, s.trial_index) for s in specs] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]
        assert specs[0].n == 200 and specs[3].n == 400

    def test_build_specs_validates_trials(self):
        with pytest.raises(ValueError):
            build_specs(GRID, trials=0, sweep_seed=0)

    def test_specs_pickle_roundtrip(self):
        specs = build_specs(GRID, trials=2, sweep_seed=1)
        assert pickle.loads(pickle.dumps(specs)) == specs


class TestExecutorIdentity:
    def test_serial_vs_parallel_byte_identical(self):
        """(a) the headline guarantee: records match byte for byte."""
        instance_fn = default_instance(epsilon=0.3, k=3)
        serial = run_sweep(
            sim_low_protocol, instance_fn, GRID, trials=3, seed=11,
            executor=SerialExecutor(),
        )
        parallel = run_sweep(
            sim_low_protocol, instance_fn, GRID, trials=3, seed=11,
            executor=ParallelExecutor(workers=4),
        )
        assert serial.records == parallel.records
        assert serial.points == parallel.points
        assert pickle.dumps(serial.records) == pickle.dumps(parallel.records)

    def test_parallel_chunking_preserves_order(self):
        instance_fn = default_instance(epsilon=0.3, k=3)
        specs = build_specs(GRID, trials=4, sweep_seed=2)
        chunked = run_trials(
            sim_low_protocol, instance_fn, specs,
            executor=ParallelExecutor(workers=3),
        )
        reference = run_trials(
            sim_low_protocol, instance_fn, specs,
            executor=SerialExecutor(),
        )
        assert chunked == reference
        assert [r.point_index for r in chunked] == [
            s.point_index for s in specs
        ]

    def test_closures_survive_parallel_execution(self):
        """Protocol/instance closures never pickle — fork shares them."""
        epsilon = 0.3  # captured by both closures below

        def instance(n, d, seed):
            return default_instance(epsilon=epsilon, k=3)(n, d, seed)

        result = run_sweep(
            lambda p, s: find_triangle_sim_low(
                p, SimLowParams(epsilon=epsilon, delta=0.2), seed=s
            ),
            instance, GRID, trials=2, seed=3,
            executor=ParallelExecutor(workers=2),
        )
        assert len(result.records) == 4

    def test_workers_knob_equivalence(self):
        instance_fn = default_instance(epsilon=0.3, k=3)
        by_knob = run_sweep(
            sim_low_protocol, instance_fn, GRID, trials=2, seed=4, workers=2
        )
        serial = run_sweep(
            sim_low_protocol, instance_fn, GRID, trials=2, seed=4, workers=1
        )
        assert by_knob.records == serial.records


class TestUnsupervisedExceptions:
    """With no retry/journal/resume/fault_plan nothing is captured: a
    trial exception reaches the caller with its original type."""

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("make_executor", UNSUPERVISED_EXECUTORS)
    def test_run_trials_propagates(self, make_executor, batch):
        specs = build_specs(GRID, trials=2, sweep_seed=0)
        with pytest.raises(ValueError, match="protocol failure"):
            run_trials(
                raising_protocol, default_instance(epsilon=0.3, k=3), specs,
                executor=make_executor(), batch=batch,
            )

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("make_executor", UNSUPERVISED_EXECUTORS)
    def test_run_sweep_propagates(self, make_executor, batch):
        with pytest.raises(ValueError, match="protocol failure"):
            run_sweep(
                raising_protocol, default_instance(epsilon=0.3, k=3), GRID,
                trials=2, seed=0, executor=make_executor(), batch=batch,
            )


class TestNestedParallel:
    def test_inner_parallel_run_falls_back_to_serial(self):
        """A parallel run requested from inside a pool worker runs
        serially there (the task slot is single-occupancy) and changes
        no record."""
        specs = build_specs(GRID, trials=2, sweep_seed=31)
        serial = run_trials(
            spawn_helpers.NestedProtocol(inner_workers=1),
            spawn_helpers.spawn_instance, specs, executor=SerialExecutor(),
        )
        nested = run_trials(
            spawn_helpers.NestedProtocol(inner_workers=2),
            spawn_helpers.spawn_instance, specs,
            executor=ParallelExecutor(workers=2),
        )
        assert pickle.dumps(nested) == pickle.dumps(serial)


class TestSpawnExecutor:
    """The executor contract must hold without fork (Windows, macOS
    defaults, Python 3.14's default change): records byte-identical to
    serial, with the task shipped pickled through the pool initializer."""

    def test_spawn_records_byte_identical_to_serial(self):
        specs = build_specs(GRID, trials=2, sweep_seed=21)
        serial = run_trials(
            spawn_helpers.spawn_protocol, spawn_helpers.spawn_instance,
            specs, executor=SerialExecutor(),
        )
        spawned = run_trials(
            spawn_helpers.spawn_protocol, spawn_helpers.spawn_instance,
            specs,
            executor=ParallelExecutor(workers=2, start_method="spawn"),
        )
        assert pickle.dumps(spawned) == pickle.dumps(serial)

    def test_spawn_falls_back_to_serial_on_unpicklable_task(self):
        epsilon = 0.3  # captured: the closures below never pickle

        def closure_instance(n, d, seed):
            return default_instance(epsilon=epsilon, k=3)(n, d, seed)

        specs = build_specs(GRID, trials=2, sweep_seed=22)
        via_spawn = run_trials(
            lambda p, s: sim_low_protocol(p, s), closure_instance, specs,
            executor=ParallelExecutor(workers=2, start_method="spawn"),
        )
        serial = run_trials(
            sim_low_protocol, closure_instance, specs,
            executor=SerialExecutor(),
        )
        assert via_spawn == serial

    def test_unavailable_start_method_rejected(self):
        available = multiprocessing.get_all_start_methods()
        assert "spawn" in available  # spawn exists on every platform
        with pytest.raises(ValueError):
            ParallelExecutor(workers=2, start_method="threads")

    def test_default_instance_builder_pickles(self):
        builder = default_instance(epsilon=0.25, k=4)
        clone = pickle.loads(pickle.dumps(builder))
        assert clone(100, 4.0, 7).k == 4


class TestWorkerResolution:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert isinstance(default_executor(None), SerialExecutor)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        executor = default_executor(None)
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_zero_means_all_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(0) >= 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            resolve_workers(None)


class TestInstanceCache:
    def test_cache_hit_across_protocols_at_shared_grid_point(self):
        """(c) two protocols at one grid point build the instance once."""
        cache = InstanceCache()
        built = []
        instance_fn = default_instance(epsilon=0.3, k=3)

        def counting_instance(n, d, seed):
            built.append((n, d, seed))
            return instance_fn(n, d, seed)

        first = run_sweep(
            sim_low_protocol, counting_instance, GRID, trials=2, seed=9,
            cache=cache, instance_key="shared",
        )
        second = run_sweep(
            lambda p, _s: sim_low_protocol(p, 0),  # a "different protocol"
            counting_instance, GRID, trials=2, seed=9,
            cache=cache, instance_key="shared",
        )
        assert len(built) == 4  # built once per (point, trial), not twice
        assert cache.hits == 4 and cache.misses == 4
        # Same instances => the deterministic protocol saw identical inputs.
        assert [r.seed for r in first.records] == [
            r.seed for r in second.records
        ]

    def test_distinct_keys_do_not_collide(self):
        cache = InstanceCache()
        instance_fn = default_instance(epsilon=0.3, k=3)
        run_sweep(sim_low_protocol, instance_fn, GRID, trials=1, seed=9,
                  cache=cache, instance_key="a")
        run_sweep(sim_low_protocol, instance_fn, GRID, trials=1, seed=9,
                  cache=cache, instance_key="b")
        assert cache.hits == 0 and cache.misses == 4

    def test_disk_tier_shares_across_cache_objects(self, tmp_path):
        instance_fn = default_instance(epsilon=0.3, k=3)
        writer = InstanceCache(disk_dir=tmp_path)
        run_sweep(sim_low_protocol, instance_fn, GRID, trials=1, seed=9,
                  cache=writer, instance_key="shared")
        reader = InstanceCache(disk_dir=tmp_path)  # fresh memory tier
        run_sweep(sim_low_protocol, instance_fn, GRID, trials=1, seed=9,
                  cache=reader, instance_key="shared")
        assert writer.misses == 2
        assert reader.hits == 2 and reader.misses == 0

    def test_lru_eviction(self):
        cache = InstanceCache(max_entries=2)
        for i in range(4):
            cache.get_or_build(("key", i), lambda i=i: i)
        assert len(cache) == 2
        assert cache.get_or_build(("key", 3), lambda: "rebuilt") == 3

    def test_validates_max_entries(self):
        with pytest.raises(ValueError):
            InstanceCache(max_entries=0)


class TestCanonicalDiskKeys:
    """Disk-tier paths must be identical across processes: ``repr`` of a
    dict/set-bearing key is insertion/hash-order dependent and objects
    with default reprs embed memory addresses."""

    DICT_KEY = ("instance", {"b": 2.5, "a": 1}, frozenset({3, 1, 2}), None)

    def test_dict_order_does_not_change_path(self, tmp_path):
        cache = InstanceCache(disk_dir=tmp_path)
        forward = cache._disk_path(("k", {"a": 1, "b": 2}))
        backward = cache._disk_path(("k", {"b": 2, "a": 1}))
        assert forward == backward

    def test_two_processes_derive_identical_paths(self, tmp_path):
        """A child interpreter (fresh hash seed) must agree on the path."""
        import os
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        script = (
            "from repro.runtime.cache import InstanceCache; "
            f"c = InstanceCache(disk_dir={str(tmp_path)!r}); "
            f"print(c._disk_path({self.DICT_KEY!r}).name)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src
        env["PYTHONHASHSEED"] = "54321"  # scrambles set/dict hash order
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        )
        parent = InstanceCache(disk_dir=tmp_path)
        assert out.stdout.strip() == parent._disk_path(self.DICT_KEY).name

    def test_unencodable_key_rejected_loudly(self, tmp_path):
        class Opaque:
            pass

        cache = InstanceCache(disk_dir=tmp_path)
        with pytest.raises(TypeError, match="canonical encoding"):
            cache.get_or_build(("k", Opaque()), lambda: 1)

    def test_memory_tier_unaffected_by_encoding(self):
        """No disk dir => keys only need hashability, as before."""
        cache = InstanceCache()
        token = object()

        class Hashable:
            pass

        assert cache.get_or_build(("k", Hashable()), lambda: token) is token


def one_spec_batch(spec: TrialSpec) -> TrialBatch:
    return TrialBatch(point_index=spec.point_index, specs=(spec,))


class TestTrialTask:
    def test_result_records_spec_coordinates(self):
        task = TrialTask(
            default_instance(epsilon=0.3, k=3), sim_low_protocol
        )
        spec = build_specs(GRID, trials=1, sweep_seed=0)[1]
        (result,) = task.run_batch(one_spec_batch(spec))
        assert isinstance(result, TrialResult)
        assert (result.point_index, result.trial_index) == (1, 0)
        assert result.seed == spec.seed
        assert result.bits > 0

    def test_metrics_hook_lands_in_extras(self):
        def metrics(spec, partition, outcome):
            return {"k": partition.k, "bits_echo": outcome.total_bits}

        task = TrialTask(
            default_instance(epsilon=0.3, k=3), sim_low_protocol,
            metrics=metrics,
        )
        spec = TrialSpec(0, 0, 200, 4.0, 3, seed=derive_seed(0, 0, 0))
        (result,) = task.run_batch(one_spec_batch(spec))
        assert result.extras["k"] == 3
        assert result.extras["bits_echo"] == result.bits

    def test_k_aware_instance_builder(self):
        def instance(n, d, seed, k):
            return default_instance(epsilon=0.3, k=k)(n, d, seed)

        task = TrialTask(instance, sim_low_protocol)
        spec = TrialSpec(0, 0, 200, 4.0, 4, seed=derive_seed(0, 0, 0))
        assert task.build_instance(spec).k == 4

    def test_protocol_shared_keyword_keeps_its_default(self):
        """The engine calls ``protocol(instance, seed)`` and nothing
        more: a protocol that declares a ``shared`` keyword gets the
        default it declared, whatever that default is."""
        sentinel = object()
        seen = []

        def protocol(instance, seed, *, shared=sentinel):
            seen.append(shared)
            return Outcome(total_bits=1.0, found=False)

        specs = build_specs(GRID, trials=2, sweep_seed=0)
        for batch in (False, True):
            run_trials(protocol, lambda n, d, seed: Instance(seed), specs,
                       executor=SerialExecutor(), batch=batch)
        assert len(seen) == 2 * len(specs)
        assert all(shared is sentinel for shared in seen)

    def test_uncached_batch_releases_each_instance(self):
        """Without a cache a batch keeps no instance alive past its
        trial: when trial i runs, trial i-1's instance is gone."""
        built = []
        released_before = []

        def build(n, d, seed):
            instance = Instance(seed)
            built.append(weakref.ref(instance))
            return instance

        def protocol(instance, seed):
            released_before.append(
                all(ref() is None for ref in built[:-1])
            )
            return Outcome(total_bits=1.0, found=False)

        specs = build_specs([(200, 4.0, 3)], trials=4, sweep_seed=0)
        task = TrialTask(build, protocol)
        (batch,) = batch_specs(specs)
        task.run_batch(batch)
        assert len(built) == 4
        assert released_before == [True] * 4


class Instance:
    """A weak-referenceable stand-in instance."""

    def __init__(self, seed: int) -> None:
        self.seed = seed


class Outcome(NamedTuple):
    total_bits: float
    found: bool
