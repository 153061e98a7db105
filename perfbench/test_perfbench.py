"""Tests of the benchmark's own machinery: self time, patching, the gate.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import inspect
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
from layers import (
    LAYER_SPANS,
    GateFailure,
    Patches,
    ResultTap,
    SelfTimer,
    Span,
    import_all_repro_modules,
    instrumented,
)

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_span_minus_child_spans():
    clock = FakeClock()
    timer = SelfTimer(clock)

    def inner():
        clock.advance(2.0)

    inner = timer.wrap(inner, Span("t:inner", "inner_s", "inner_calls"))

    def outer():
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(0.5)

    outer = timer.wrap(outer, Span("t:outer", "outer_s", "outer_calls",
                                   track_max=True))
    outer()
    assert timer.self_s["outer_s"] == pytest.approx(1.5)
    assert timer.self_s["inner_s"] == pytest.approx(4.0)
    assert timer.counts == {"outer_calls": 1, "inner_calls": 2}
    assert timer.max_s["outer_s"] == pytest.approx(5.5)
    # Self times partition the outermost span's wall clock.
    assert sum(timer.self_s.values()) == pytest.approx(clock.now)


def test_same_count_key_nesting_counts_once_and_closures_are_spanned():
    clock = FakeClock()
    timer = SelfTimer(clock)

    def draw():
        clock.advance(1.0)

    draw = timer.wrap(draw, Span("t:draw", "coins_s", "draws"))

    def draw_mask():
        draw()  # the mask form delegating to the list form: one draw

    draw_mask = timer.wrap(draw_mask, Span("t:mask", "coins_s", "draws"))

    def factory():
        def rank(item):
            clock.advance(0.25)
            return item

        return rank

    factory = timer.wrap(factory, Span("t:rank", "coins_s",
                                       returns_callable="rank_evals"))
    draw_mask()
    rank = factory()
    assert [rank(i) for i in range(4)] == [0, 1, 2, 3]
    assert timer.counts == {"draws": 1, "rank_evals": 4}
    assert timer.self_s["coins_s"] == pytest.approx(2.0)


def test_self_time_survives_exceptions():
    clock = FakeClock()
    timer = SelfTimer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    boom = timer.wrap(boom, Span("t:boom", "boom_s", "boom_calls"))
    with pytest.raises(ValueError):
        boom()
    assert timer.self_s["boom_s"] == pytest.approx(1.0)
    assert timer._stack == []


def _repro_namespaces() -> dict[tuple[str, str], dict]:
    """Every repro module and class namespace, as name -> value copies."""
    import_all_repro_modules()
    spaces = {}
    for module in layers._repro_modules():
        spaces[(module.__name__, "")] = dict(vars(module))
        for name, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                spaces[(module.__name__, name)] = dict(vars(value))
    return spaces


def _originals() -> dict[str, object]:
    import_all_repro_modules()
    originals = {}
    for span in LAYER_SPANS:
        owner, name = layers._resolve(span.target)
        originals[span.target] = vars(owner)[name]
    return originals


def _holders(original: object) -> list[str]:
    """Where a repro namespace or default argument still holds ``original``."""
    found = []
    for module in layers._repro_modules():
        for attr, value in vars(module).items():
            if value is original:
                found.append(f"{module.__name__}.{attr}")
            defaults = (getattr(value, "__defaults__", None) or ()) + tuple(
                (getattr(value, "__kwdefaults__", None) or {}).values())
            if any(d is original for d in defaults):
                found.append(f"default of {module.__name__}.{attr}")
    return found


def test_every_binding_site_is_patched_while_traced():
    originals = _originals()
    # The from-import sites the harness calls through must be among them.
    from repro.analysis import experiments, table1

    assert table1.far_instance is originals[
        "repro.graphs.generators:far_instance"]
    assert experiments.partition_disjoint is originals[
        "repro.graphs.partition:partition_disjoint"]
    with instrumented(ResultTap(), SelfTimer()):
        for target, original in originals.items():
            assert _holders(original) == [], target
            owner, name = layers._resolve(target)
            assert vars(owner)[name] is not original
        assert table1.far_instance is not originals[
            "repro.graphs.generators:far_instance"]


@pytest.mark.parametrize("fail", [False, True])
def test_everything_is_restored_on_exit(fail):
    before = _repro_namespaces()
    with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
        with instrumented(ResultTap(), SelfTimer()):
            if fail:
                raise RuntimeError("workload died")
    after = _repro_namespaces()
    assert after.keys() == before.keys()
    for key, names in before.items():
        changed = [n for n, v in names.items() if after[key].get(n) is not v]
        assert changed == [], key


def test_traced_sweep_counts_layers_and_keeps_records():
    from repro.analysis import experiments, table1
    from repro.core.simultaneous_low import SimLowParams

    def sweep():
        return experiments.run_sweep(
            lambda partition, s, shared=None: table1.find_triangle_sim_low(
                partition, SimLowParams(epsilon=0.2, delta=0.2), seed=s,
                shared=shared),
            table1.far_disjoint_instance(epsilon=0.2, k=3),
            [(300, 6.0, 3), (600, 6.0, 3)], trials=2, seed=5, workers=1,
        ).records

    plain = sweep()
    tap, timer = ResultTap(), SelfTimer()
    with instrumented(tap, timer):
        start = timer.clock()
        spanned = sweep()
        wall = timer.clock() - start
    assert spanned == plain
    assert tap.all_records() == plain
    assert tap.outcomes == 4
    assert tap.backends == {"bigint"}
    assert timer.counts["graphs.generate_calls"] == 4
    assert timer.counts["graphs.partition_calls"] == 4
    assert timer.counts["core.protocol_calls"] == 4
    assert timer.counts["runtime.batches"] == 2
    assert timer.counts["comm.randomness.subset_draws"] == 8
    assert timer.counts["graphs.instance_bytes"] > 0
    for key in ("graphs.generate_s", "graphs.partition_s",
                "graphs.player_rows_s", "comm.players.harvest_s",
                "core.protocol_s", "core.referee_s"):
        assert timer.self_s[key] > 0, key
    assert timer.attributed_s() <= wall


def test_result_tap_rejects_a_triangle_absent_from_the_instance():
    from repro.graphs.graph import Graph

    partition = types.SimpleNamespace(graph=Graph(4, [(0, 1), (1, 2)]))

    def protocol(partition, seed=0):
        return types.SimpleNamespace(found=True, triangle=(0, 1, 2))

    checked = ResultTap()._check(protocol)
    with pytest.raises(GateFailure):
        checked(partition)

    def honest(partition, seed=0):
        return types.SimpleNamespace(found=False, triangle=None)

    tap = ResultTap()
    tap._check(honest)(partition)
    assert (tap.outcomes, tap.found) == (1, 0)


def test_patches_restore_methods_and_functions():
    module = types.ModuleType("repro._perfbench_probe")
    sys.modules[module.__name__] = module

    def f():
        return "f"

    class C:
        def m(self):
            return "m"

    method = vars(C)["m"]

    module.f, module.g, module.C = f, f, C
    try:
        patches = Patches()
        patches.replace(f"{module.__name__}:f", lambda fn: lambda: "wrapped")
        patches.replace(f"{module.__name__}:C.m",
                        lambda fn: lambda self: "wrapped")
        assert (module.f(), module.g(), C().m()) == ("wrapped",) * 3
        patches.restore()
        assert module.f is f and module.g is f
        assert vars(C)["m"] is method
    finally:
        del sys.modules[module.__name__]


def test_cli_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench / path.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1-quick",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
