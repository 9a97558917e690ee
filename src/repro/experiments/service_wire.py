"""Extension study: wire cost of the serving layer.

This experiment replays one pinned workload through a live server as
MGET/MSET batches over the binary frame protocol
(:mod:`repro.service.protocol`).  The arrival order is pinned, so the hit
rate repeats exactly and the measured quantity is the wire throughput:
ops/s of the batched replay and its wall, for the perf baseline to
ratchet.

Unlike the figure reproductions this driver runs a live asyncio server,
so the ``runner`` argument is not used for execution — but the leg is
accounted into its stats as a cell (label ``wire-v2``) so
``repro perf record --suite service`` produces a baseline
``repro perf compare`` can gate on.
"""

from __future__ import annotations

import asyncio

from ..obs.prof import clock, cpu_clock, peak_rss_kb
from ..service.cli import build_service_parser, make_store
from ..service.client import CacheClient
from ..service.loadgen import replay_batched
from ..service.server import CacheServer
from ..workloads.mixes import EXAMPLE_MIX, build_workload
from .common import ExperimentParams

#: MGET/MSET chunk size of the batched replay
BATCH = 64

#: store geometry, pinned (the downsized regime, so admission is exercised)
SHARDS = 2
DATA_CAPACITY = 256


def _account(runner, label: str, wall_s: float, cpu_s: float,
             ops: int) -> None:
    """Record one live-server leg as an executed cell in ``runner.stats``."""
    if runner is None:
        return
    stats = runner.stats
    stats.run += 1
    stats.seconds += wall_s
    stats.cpu_seconds += cpu_s
    stats.peak_rss_kb = max(stats.peak_rss_kb, peak_rss_kb())
    stats.refs += ops
    stats.cells.append({
        "label": label,
        "status": "run",
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_kb": peak_rss_kb(),
        "refs": ops,
        "refs_per_s": ops / wall_s if wall_s > 0 else 0.0,
    })


async def _wire_leg(workload, args) -> dict:
    """Replay ``workload`` batched against a fresh in-process server."""
    server = CacheServer(make_store(args), port=0)
    await server.start()
    try:
        client = CacheClient(server.host, server.port)
        try:
            result = await replay_batched(
                client, workload,
                value_bytes=args.value_bytes,
                batch=BATCH,
                sample_every=4,
            )
        finally:
            await client.close()
    finally:
        await server.stop()
    return result.summary()


def run_service_wire(params: ExperimentParams | None = None, runner=None):
    """Replay one workload batched over live sockets; returns a dict."""
    if params is None:
        params = ExperimentParams.from_env()
    refs = min(params.n_refs, 12_000)  # live servers: keep the wall short
    args = build_service_parser().parse_args(["bench-service"])
    args.seed = params.seed
    args.shards = SHARDS
    args.data_capacity = DATA_CAPACITY
    workload = build_workload(EXAMPLE_MIX, n_refs=refs, seed=params.seed,
                              scale=params.scale)
    wall0, cpu0 = clock(), cpu_clock()
    leg = asyncio.run(_wire_leg(workload, args))
    _account(runner, "wire-v2", clock() - wall0, cpu_clock() - cpu0,
             leg["ops"])
    return {
        "workload": workload.name,
        "refs_per_core": refs,
        "scale": params.scale,
        "seed": params.seed,
        "batch": BATCH,
        "shards": SHARDS,
        "data_capacity": DATA_CAPACITY,
        "v2": leg,
    }


def format_service_wire(result: dict) -> str:
    """Human-readable one-row table of the batched replay."""
    leg = result["v2"]
    return "\n".join([
        f"Service wire cost: {result['workload']} "
        f"({result['refs_per_core']} refs/core, batch {result['batch']})",
        f"{'hit rate':>9} {'ops':>9} {'wall s':>8} {'rps':>10} "
        f"{'p99 ms':>8}",
        f"{leg['hit_rate']:>9.4f} {leg['ops']:>9d} {leg['wall_s']:>8.2f} "
        f"{leg['throughput_rps']:>10.0f} {leg['p99_ms']:>8.3f}",
    ])
