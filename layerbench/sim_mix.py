"""sim-mix: the paper's RC-4/1 SLLC simulating EXAMPLE_MIX in-process.

One *cell* is the fixed unit of work: build an 8-core workload, construct
the ``System`` (together: the set-up time), then run it to completion.
The run's seed fixes ``CELL_SEEDS`` workloads, one per cell seed, and the
run repeats the cycle of their cells until its time budget is spent.
Every cell of one cell seed must report the same simulated statistics;
any difference is a determinism failure.

Cells are short (about 0.1 s) so that the host-speed kernel timed around
each one (``hostspeed``) sees the same phase of the host as the cell.
Short cells alone would make the simulated figures hang on one small
workload, so those are taken over the whole cycle.
"""

from __future__ import annotations

import gc
import time

from .common import (
    OUT_DIR, clock, median, merge_checks, peak_rss_mb, percentile,
)
from .hostspeed import Ruler
from .layers import install_simulator
from .spans import Patcher, SpanLog

#: references simulated per core in one cell
REFS_PER_CORE = 2_000
#: workloads (cells) in one cycle
CELL_SEEDS = 16
#: SLLC scale divisor (the paper's 8 MB-class SLLC at 1/32 size)
SCALE = 32


def cell_seeds(seed: int) -> list:
    """The cycle's workload seeds: disjoint for different run seeds."""
    return [seed * CELL_SEEDS + j for j in range(CELL_SEEDS)]


def _cell(config, seed: int, log: SpanLog | None):
    """Run one cell; returns its measurements and check verdict."""
    from repro.hierarchy import System
    from repro.workloads import mixes

    cpu0 = time.process_time()
    t0 = clock()
    workload = mixes.build_workload(mixes.EXAMPLE_MIX, REFS_PER_CORE,
                                    seed=seed, scale=SCALE)
    t1 = clock()
    system = System(config, workload)
    t2 = clock()
    lo = len(log) if log is not None else 0
    result = system.run()
    t3 = clock()
    cpu = time.process_time() - cpu0
    refs = sum(t.n_refs for t in workload.traces)
    stats = result.llc_stats
    checks = {
        "pointer_consistency": all(b.check_pointer_consistency() for b in system.banks),
        "data_fills_le_tag_fills": stats["data_fills"] <= stats["tag_fills"],
    }
    cell = {
        "seed": seed,
        "build_s": t1 - t0,
        "setup_s": t2 - t0,
        "sim_s": t3 - t2,
        "refs": refs,
        "cpu_s": cpu,
        "ok": all(checks.values()),
        "checks": checks,
        # simulated outcome: must repeat exactly in every cell of this seed
        "sim": {
            "data_hits": stats["data_hits"],
            "accesses": stats["accesses"],
            "sim_ipc": result.performance,
            "data_fills": stats["data_fills"],
            "tag_fills": stats["tag_fills"],
            "dram_reads": result.dram_stats["reads"],
        },
    }
    if log is not None:
        cell["ledger"] = log.ledger(lo)
        cell["counts"] = dict(log.counts)
    return cell


def cycle_sim(sims: list) -> dict:
    """The simulated figures of one cycle (one cell per cell seed)."""
    total = {k: sum(s[k] for s in sims) for k in ("data_hits", "accesses",
                                                  "data_fills", "tag_fills")}
    return {
        "hit_rate": total["data_hits"] / total["accesses"],
        "sim_ipc": sum(s["sim_ipc"] for s in sims) / len(sims),
        "data_fill_ratio": total["data_fills"] / total["tag_fills"],
    }


def layer_metrics(cells: list, sim: dict) -> dict:
    """Per-layer metrics over whole cycles of traced cells.

    Calls and counts are summed, so the ratios repeat exactly whatever
    the number of cycles; times are at reference speed.
    """
    led, counts, refs = {}, {}, 0
    for cell in cells:
        refs += cell["refs"]
        for name, entry in cell["ledger"].items():
            acc = led.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += entry["calls"]
            acc["self_s"] += entry["self_s"] * cell["factor"]
        for name, n in cell["counts"].items():
            counts[name] = counts.get(name, 0) + n

    def get(name, field):
        return led.get(name, {}).get(field, 0)

    llc = [n for n in led if n.startswith("core.llc_")]
    victims = get("replacement.victim", "calls")
    return {
        "workloads.build_s": median(c["build_s"] * c["factor"] for c in cells),
        "hierarchy.self_us_per_ref": get("hierarchy.run", "self_s") / refs * 1e6,
        "cache.private_us_per_ref": get("cache.private_access", "self_s") / refs * 1e6,
        "cache.private_calls_per_ref": get("cache.private_access", "calls") / refs,
        "core.llc_us_per_ref": sum(led[n]["self_s"] for n in llc) / refs * 1e6,
        "core.llc_calls_per_kref": sum(led[n]["calls"] for n in llc) / refs * 1e3,
        "core.data_fill_ratio": sim["data_fill_ratio"],
        "core.sim_ipc": sim["sim_ipc"],
        "replacement.victim_us": (get("replacement.victim", "self_s") / victims * 1e6
                                  if victims else 0.0),
        "replacement.victim_calls_per_kop": victims / refs * 1e3,
        "replacement.candidates_per_victim": (
            counts.get("replacement.victim#weight", 0) / victims if victims else 0.0),
        "dram.us_per_ref": (get("dram.read", "self_s") + get("dram.write", "self_s"))
        / refs * 1e6,
        "dram.reads_per_kref": get("dram.read", "calls") / refs * 1e3,
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Cycle through the cells for ``seconds``; with ``trace``, alternate traced cells."""
    from repro.hierarchy import LLCSpec, SystemConfig
    from repro.workloads import mixes

    config = SystemConfig(llc=LLCSpec.reuse(4, 1), scale=SCALE)
    seeds = cell_seeds(seed)
    # the inputs: built once untimed (warming the generator code), then
    # frozen out of the collector's way; each cell rebuilds them timed
    for s in seeds:
        mixes.build_workload(mixes.EXAMPLE_MIX, REFS_PER_CORE, seed=s, scale=SCALE)
    gc.freeze()
    plain, traced, log = [], [], None
    ruler = Ruler()

    def measure(s, log=None):
        cell = _cell(config, s, log)
        cell["factor"] = ruler.scale(cell["setup_s"] + cell["sim_s"])
        return cell

    deadline = clock() + seconds
    # whole cycles only, so every cell seed weighs the same in the medians
    while clock() < deadline or len(plain) % len(seeds) or not plain:
        s = seeds[len(plain) % len(seeds)]
        plain.append(measure(s))
        if trace:
            log, patcher = SpanLog(), Patcher()
            install_simulator(log, patcher)
            try:
                traced.append(measure(s, log))
            finally:
                patcher.undo()
    first = {}
    for cell in plain + traced:
        if cell["sim"] != first.setdefault(cell["seed"], cell["sim"]):
            cell["ok"] = False
            cell["checks"]["repeats_exactly"] = False
    sim = cycle_sim([first[s] for s in seeds])
    failed = sum(1 for c in plain + traced if not c["ok"])
    # every timing at reference speed: the cell's figure times its factor
    sim_ms = [c["sim_s"] * c["factor"] * 1e3 for c in plain]
    rates = [c["refs"] / (c["sim_s"] * c["factor"]) for c in plain]
    result = {
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "checks": merge_checks(plain + traced),
        "samples": {"cells": len(plain), "cycles": len(plain) // len(seeds)},
        "host_speed": {
            "median_factor": median(c["factor"] for c in plain),
            "wall_ops_per_s": median(c["refs"] / c["sim_s"] for c in plain),
        },
        "sim": sim,
        "end_to_end": {
            "setup_s": median(c["setup_s"] * c["factor"] for c in plain),
            "ops_per_s": median(rates),
            "p50_ms": median(sim_ms),
            "p90_ms": percentile(sim_ms, 90),
            "cpu_ms_per_kop": median(c["cpu_s"] * c["factor"] * 1e6 / c["refs"]
                                     for c in plain),
            "hit_rate": sim["hit_rate"],
            "success_rate": 1.0 - failed / (len(plain) + len(traced)),
            "peak_rss_mb": peak_rss_mb(),
        },
    }
    if trace:
        per_layer = layer_metrics(traced, sim)
        traced_rate = median(c["refs"] / (c["sim_s"] * c["factor"]) for c in traced)
        per_layer["trace.overhead_frac"] = 1.0 - traced_rate / median(rates)
        result["per_layer"] = per_layer
        result["samples"]["traced_cells"] = len(traced)
        log.save(OUT_DIR / f"spans-sim-mix-seed{seed}.npz")
    return result
