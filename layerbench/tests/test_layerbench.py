"""The benchmark's own checks: tables, determinism, seeds, guard, spans.

Run from the checkout root::

    python3 -m pytest layerbench/tests -p no:cacheprovider

The determinism tests shrink the fixed work per cell or round (module
constants) so that two short runs fit in a few seconds each.
"""

import asyncio
import json
import shutil
import subprocess
import sys

import pytest

from layerbench import hostspeed, served, sim_mix
from layerbench.common import ROOT
from layerbench.metrics import END_TO_END, HELD_OUT_SEED, PER_LAYER, WORKLOADS
from layerbench.run import final_line, run_workload
from layerbench.spans import Patcher, SpanLog

SIM_COUNTS = (
    "cache.private_calls_per_ref", "core.llc_calls_per_kref", "core.data_fill_ratio",
    "core.sim_ipc", "replacement.victim_calls_per_kop",
    "replacement.candidates_per_victim", "dram.reads_per_kref",
)
SERVE_COUNTS = (
    "protocol.frames_per_op", "server.tasks_per_op", "server.drains_per_op",
    "server.writes_per_op", "store.hash_calls_per_op", "store.admissions_per_kop",
    "store.data_evictions_per_kop", "store.tag_evictions_per_kop",
    "replacement.victim_calls_per_kop", "replacement.candidates_per_victim",
)


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.fixture
def small_sim(monkeypatch):
    monkeypatch.setattr(sim_mix, "REFS_PER_CORE", 500)
    monkeypatch.setattr(sim_mix, "CELL_SEEDS", 3)


@pytest.fixture
def small_serve(monkeypatch):
    monkeypatch.setattr(served, "SERVE_REFS_PER_CORE", 300)


def test_sim_mix_repeats_exactly(small_sim):
    a = run_workload("sim-mix", 5, 0.0, trace=True)
    b = run_workload("sim-mix", 5, 0.0, trace=True)
    assert a["failed"] == b["failed"] == 0
    assert a["sim"] == b["sim"]
    assert a["end_to_end"]["hit_rate"] == b["end_to_end"]["hit_rate"]
    for name in SIM_COUNTS:
        assert a["per_layer"][name] == b["per_layer"][name], name
    line = final_line(a, trace=True)
    assert set(line["metrics"]) == {name for name, _, _ in PER_LAYER}


def test_serve_read_repeats_exactly(small_serve):
    a = run_workload("serve-read", 5, 0.0, trace=True)
    b = run_workload("serve-read", 5, 0.0, trace=True)
    assert a["failed"] == b["failed"] == 0
    assert a["deterministic"] == b["deterministic"]
    assert a["end_to_end"]["hit_rate"] == b["end_to_end"]["hit_rate"]
    for name in SERVE_COUNTS:
        assert a["per_layer"][name] == b["per_layer"][name], name
    assert a["per_layer"]["server.drains_per_op"] > 0


def test_cluster_churn_has_no_stale_reads(monkeypatch):
    monkeypatch.setattr(served, "CLUSTER_FILL_KEYS", 50)
    monkeypatch.setattr(served, "CLUSTER_OPS_PER_WORKER", 300)
    result = run_workload("cluster-churn", 5, 0.0, trace=False)
    assert result["failed"] == 0
    assert result["stale_reads"] == 0
    assert result["checks"]["pending_invals_drained"]
    assert set(final_line(result, trace=False)["metrics"]) == {n for n, _, _ in END_TO_END}


def _sim_mix_refs(seed):
    from repro.workloads.mixes import EXAMPLE_MIX, build_workload

    workloads = [build_workload(EXAMPLE_MIX, 500, seed=s, scale=sim_mix.SCALE)
                 for s in sim_mix.cell_seeds(seed)]
    return [list(t.addrs) for w in workloads for t in w.traces]


@pytest.mark.parametrize("make", [
    _sim_mix_refs,
    lambda seed: served.serve_read_inputs(seed)[0],
    served.cluster_inputs,
])
def test_seeds_give_different_inputs(make):
    assert make(1) == make(1)
    assert make(1) != make(2)
    assert make(HELD_OUT_SEED) != make(1)


def test_refuses_to_run_without_the_checkouts_package(tmp_path):
    shutil.copytree(ROOT / "layerbench", tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", "sim-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_ruler_scales_each_unit_by_the_kernel_around_it(monkeypatch):
    kernel = iter([0.004, 0.002, 0.006])
    monkeypatch.setattr(hostspeed, "kernel_s", lambda: next(kernel))
    ruler = hostspeed.Ruler()
    # the host ran the kernel in 3 ms around the first unit, 4 ms around the second
    assert ruler.scale(1.0) == pytest.approx(hostspeed.REF_S / 0.003)
    assert ruler.scale(2.0) == pytest.approx(hostspeed.REF_S / 0.004)
    assert ruler.wall_s == 3.0
    assert ruler.ref_s == pytest.approx(hostspeed.REF_S * (1 / 0.003 + 2 / 0.004))
    assert ruler.factor == pytest.approx(ruler.ref_s / 3.0)


def test_ledger_self_time_subtracts_cpu_children_only():
    log, patcher = SpanLog(), Patcher()

    class Layer:
        def inner(self):
            return sum(range(2000))

        def outer(self):
            return self.inner() + self.inner()

        async def wait(self):
            self.inner()
            await asyncio.sleep(0.01)

    patcher.patch(Layer, "inner", lambda fn: log.wrap_sync("inner", fn))
    patcher.patch(Layer, "outer", lambda fn: log.wrap_sync("outer", fn))
    patcher.patch(Layer, "wait", lambda fn: log.wrap_async("wait", fn))
    layer = Layer()
    layer.outer()

    async def main():
        await layer.wait()

    asyncio.run(main())
    patcher.undo()
    assert "__wrapped__" not in Layer.__dict__["inner"].__dict__
    led = log.ledger()
    assert led["inner"]["calls"] == 3
    outer = led["outer"]
    assert 0 < outer["self_s"] < outer["incl_s"]
    assert outer["incl_s"] - outer["self_s"] <= led["inner"]["incl_s"]
    # a wall span keeps its waiting time and its children
    assert led["wait"]["kind"] == "wall"
    assert led["wait"]["self_s"] == led["wait"]["incl_s"] >= 0.01
