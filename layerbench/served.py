"""serve-read and cluster-churn: live servers driven from one load process.

Each *round* is the fixed unit of work: boot a fresh stock server through
``launcher.py`` (its set-up time ends at the first answered PING), warm the
connection with untimed PINGs, replay the seed's fixed operation list,
check the answers and the server's own counters, then SIGTERM the server
and wait for it.  A run repeats rounds until its time budget is spent;
every round starts from an empty store, so deterministic counters repeat
from round to round and from run to run.

The replay is cut into short segments (about 0.1 s): the load process
waits for a segment's last answer, times the host-speed kernel
(``hostspeed``) while the server is idle, and starts the next.  Each
segment's time and latencies are scaled to reference speed by the kernel
timings on either side of it, and set-up by those around the boot.
"""

from __future__ import annotations

import asyncio
import gc
import json
import re
import signal
import sys
import time
from functools import partial

import numpy as np

from .common import (
    OUT_DIR, ROOT, BenchError, clock, median, merge_checks, percentile,
    subprocess_env,
)
from .hostspeed import Ruler
from .layers import install_client
from .spans import Patcher, SpanLog

LAUNCHER = ROOT / "layerbench" / "launcher.py"
#: untimed PINGs after set-up, before the measured phase
WARMUP_PINGS = 50
#: pause before a mark so the server is idle when it is taken
QUIESCE_S = 0.05
#: seconds a server may take to boot, or to drain after SIGTERM
BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0

# -- serve-read ---------------------------------------------------------------

#: references per core replayed in one round (8 cores, interleaved)
SERVE_REFS_PER_CORE = 1_500
#: read-throughs kept in flight on the single v2 connection
SERVE_WINDOW = 8
#: references replayed per segment
SERVE_SEGMENT = 256
SERVE_CLI = ["serve", "--port", "0", "--shards", "4", "--data-capacity", "512",
             "--admission", "reuse"]

# -- cluster-churn ------------------------------------------------------------

CLUSTER_NODES = 2
#: data-store entries per node; the key universe is several times larger
CLUSTER_CAPACITY = 1_024
CLUSTER_WORKERS = 4
CLUSTER_KEYS_PER_WORKER = 2_048
#: keys per worker admitted before the measured phase (4 x 600 > 2 x 1024)
CLUSTER_FILL_KEYS = 600
CLUSTER_OPS_PER_WORKER = 2_000
#: operations per worker in one segment
CLUSTER_SEGMENT = 64
#: Zipf exponent of key popularity within each worker's range
CLUSTER_SKEW = 0.6
#: step shares: (GET then SET, lone GET, DEL) -> about 50/40/10 operations
CLUSTER_STEPS = (4 / 6, 1 / 6, 1 / 6)
CLUSTER_CLI = ["cluster", "serve", "--nodes", str(CLUSTER_NODES), "--replicas", "2",
               "--data-capacity", str(CLUSTER_CAPACITY)]
VALUE_BYTES = 64

#: STATS counters reported per kop (sums over shards and nodes)
STORE_COUNTERS = ("reuse_admissions", "data_evictions", "tag_evictions")


class ServerProcess:
    """One launcher subprocess: boot, stdout scraping, marks and shutdown.

    Use as ``async with ServerProcess(cli, trace, tag) as server``; on a
    clean exit ``server.result`` holds the launcher's result file.
    """

    def __init__(self, cli: list, trace: bool, tag: str):
        self.cmd = [sys.executable, str(LAUNCHER), "--out"]
        self.out = OUT_DIR / f"{tag}.json"
        self.log_path = OUT_DIR / f"{tag}.log"
        self.cmd += [str(self.out)] + (["--trace"] if trace else []) + ["--"] + cli
        self.proc = None
        self.result = None

    async def __aenter__(self):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.out.unlink(missing_ok=True)
        self.started = clock()
        with open(self.log_path, "wb") as log:
            self.proc = await asyncio.create_subprocess_exec(
                *self.cmd, cwd=ROOT, env=subprocess_env(),
                stdout=asyncio.subprocess.PIPE, stderr=log,
            )
        return self

    async def wait_for(self, pattern: str, count: int) -> list:
        """Read stdout until ``count`` lines match; returns the matches."""
        regex = re.compile(pattern.encode())
        deadline = time.monotonic() + BOOT_TIMEOUT
        matches = []
        while len(matches) < count:
            try:
                line = await asyncio.wait_for(self.proc.stdout.readline(),
                                              deadline - time.monotonic())
            except asyncio.TimeoutError:
                raise BenchError(f"server did not print {pattern!r}; "
                                 f"see {self.log_path}") from None
            if not line:
                raise BenchError(f"server exited before {pattern!r}; see {self.log_path}")
            match = regex.search(line)
            if match:
                matches.append([g.decode() for g in match.groups()])
        return matches

    def mark(self) -> None:
        """Mark a phase boundary in the launcher (SIGUSR1)."""
        self.proc.send_signal(signal.SIGUSR1)

    async def __aexit__(self, exc_type, *_):
        """SIGTERM, wait for the drain, and read the launcher's result."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(self.proc.communicate(), STOP_TIMEOUT)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
        if exc_type is None:
            if not self.out.exists():
                raise BenchError(f"launcher wrote no result; see {self.log_path}")
            self.result = json.loads(self.out.read_text())


async def _measured(server: ServerProcess, fence, body, traced_client=None):
    """Mark, run ``body(ruler)``, mark again; returns (ruler, cpu, ledger).

    ``body`` times its segments with ``ruler``; ``cpu`` is the load
    process's CPU over ``body`` without the kernel's.

    The server finishes a request (drain, accounting, the next
    ``read_frame``) after its answer is already on the wire, so each mark
    waits ``QUIESCE_S`` for the server to go idle; ``fence()`` then
    answers a PING, so the mark was taken before the first measured
    request and after the last one, at the same point in every round.
    With ``traced_client`` (a client class) its verbs are traced while
    ``body()`` runs and the client span ledger is returned.
    """
    log, patcher = SpanLog(), Patcher()
    await asyncio.sleep(QUIESCE_S)
    server.mark()
    await fence()
    if traced_client is not None:
        install_client(log, patcher, traced_client)
    try:
        cpu0 = time.process_time()
        ruler = Ruler()
        await body(ruler)
        cpu = time.process_time() - cpu0 - ruler.kernel_cpu_s
    finally:
        patcher.undo()
    await asyncio.sleep(QUIESCE_S)
    server.mark()
    await fence()
    return ruler, cpu, log.ledger()


async def _segment(ruler: Ruler, plays, latencies: list) -> None:
    """Run one segment (``plays`` fill a list with their latencies) and scale it."""
    segment = []
    t0 = clock()
    await asyncio.gather(*[play(segment) for play in plays])
    factor = ruler.scale(clock() - t0)
    latencies.extend(x * factor for x in segment)


def _boot_time(boot: Ruler, server: ServerProcess) -> float:
    """Set-up time at reference speed; ``boot`` was made just before the launch."""
    took = clock() - server.started
    return took * boot.scale(took)


def _round(setup_s, ops, ruler, cpu, latencies, launcher, ledger) -> dict:
    # the round's factor scales the figures not taken per segment
    factor = ruler.factor
    return {
        "setup_s": setup_s,
        "ops": ops,
        "ref_s": ruler.ref_s,
        "wall_s": ruler.wall_s,
        "factor": factor,
        "client_cpu_s": cpu,
        "server_cpu_s": launcher["cpu_s"],
        "cpu_ref_s": (cpu + launcher["cpu_s"]) * factor,
        "peak_rss_mb": launcher["peak_rss_mb"],
        "latencies": latencies,
        "server": launcher,
        "client_ledger": ledger,
    }


# -- serve-read ---------------------------------------------------------------


def serve_read_inputs(seed: int):
    """The round's interleaved keys, their expected values, and build time."""
    from repro.service.loadgen import key_of, value_of
    from repro.workloads.mixes import EXAMPLE_MIX, build_workload

    t0 = clock()
    workload = build_workload(EXAMPLE_MIX, SERVE_REFS_PER_CORE, seed=seed, scale=32)
    build_s = clock() - t0
    addrs = [int(trace.addrs[i]) for i in range(SERVE_REFS_PER_CORE)
             for trace in workload.traces]
    return [key_of(a) for a in addrs], [value_of(a) for a in addrs], build_s


async def _serve_read_round(inputs, trace: bool, tag: str) -> dict:
    from repro.service.client import CacheClient

    keys, values, _ = inputs
    boot = Ruler()
    async with ServerProcess(SERVE_CLI, trace, tag) as server:
        ((host, port),) = await server.wait_for(r"listening on (\S+):(\d+)", 1)
        client = CacheClient(host, int(port), protocol="v2")
        await client.ping()
        setup_s = _boot_time(boot, server)
        for _ in range(WARMUP_PINGS):
            await client.ping()
        tally = {"gets": 0, "hits": 0, "sets": 0, "bad_values": 0}
        latencies = []

        async def worker(cursor, segment):
            # workers take the next reference when they are free; one
            # connection answers in order, so the arrival order is fixed
            for i in cursor:
                t = clock()
                value = await client.get(keys[i])
                segment.append(clock() - t)
                tally["gets"] += 1
                if value is not None:
                    tally["hits"] += 1
                    if value != values[i]:
                        tally["bad_values"] += 1
                    continue
                t = clock()
                await client.set(keys[i], values[i])
                segment.append(clock() - t)
                tally["sets"] += 1

        async def body(ruler):
            for lo in range(0, len(keys), SERVE_SEGMENT):
                cursor = iter(range(lo, min(lo + SERVE_SEGMENT, len(keys))))
                plays = [partial(worker, cursor)] * SERVE_WINDOW
                await _segment(ruler, plays, latencies)

        ruler, cpu, ledger = await _measured(server, client.ping, body,
                                             CacheClient if trace else None)
        stats = (await client.stats())["total"]
        await client.close()
    launcher = server.result
    ops = tally["gets"] + tally["sets"]
    checks = {
        "values_match": tally["bad_values"] == 0,
        "stats_add_up": stats["hits"] + stats["misses"] == stats["gets"],
        "stats_match_client": (stats["gets"], stats["hits"]) == (tally["gets"], tally["hits"]),
    }
    out = _round(setup_s, ops, ruler, cpu, latencies, launcher, ledger)
    out.update({
        "attempted": ops,
        # a wrong value fails its GET; a STATS mismatch fails the round once
        "failed": tally["bad_values"] + (not (checks["stats_add_up"]
                                              and checks["stats_match_client"])),
        "checks": checks,
        "hit_rate": tally["hits"] / tally["gets"],
        "tally": tally,
        "store": {k: stats[k] for k in STORE_COUNTERS},
    })
    return out


# -- cluster-churn --------------------------------------------------------------


def cluster_inputs(seed: int):
    """Per-worker ``(fill, plan)`` operation lists of (kind, key).

    Kinds are 0 = GET, 1 = SET, 2 = DEL.  ``fill`` earns admission for
    ``CLUSTER_FILL_KEYS`` of the worker's keys (SET tags the key, the GET
    miss marks the reuse, the second SET stores it), so the measured
    ``plan`` starts at capacity.  Each ``plan`` step picks a Zipf-skewed
    key and one of: a read-then-write pair (GET, SET), a lone GET, or a
    DEL, weighted so the operations come out about 50/40/10.  Each worker
    owns a disjoint key range, so its own model of acknowledged writes is
    the whole truth about its keys.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, CLUSTER_KEYS_PER_WORKER + 1, dtype=np.float64)
    weights = ranks ** -CLUSTER_SKEW
    weights /= weights.sum()
    out = []
    for w in range(CLUSTER_WORKERS):
        # a per-worker permutation decorrelates popularity from key names
        perm = rng.permutation(CLUSTER_KEYS_PER_WORKER)
        fill = [(kind, f"w{w}:k{int(k)}")
                for k in perm[-CLUSTER_FILL_KEYS:] for kind in (1, 0, 1)]
        steps = rng.choice(3, size=CLUSTER_OPS_PER_WORKER, p=CLUSTER_STEPS)
        keys = perm[rng.choice(CLUSTER_KEYS_PER_WORKER, size=CLUSTER_OPS_PER_WORKER,
                               p=weights)]
        plan = []
        for step, k in zip(steps, keys):
            key = f"w{w}:k{int(k)}"
            plan.extend(((0, key), (1, key)) if step == 0
                        else ((0, key),) if step == 1 else ((2, key),))
        out.append((fill, plan[:CLUSTER_OPS_PER_WORKER]))
    return out


def _value(key: str, n: int) -> bytes:
    return f"{key}#{n}".encode().ljust(VALUE_BYTES, b".")


class _Worker:
    """One closed-loop worker and its model of its own keys."""

    def __init__(self, client, errors: tuple):
        self.client = client
        self.errors = errors  # what a failed operation may raise
        self.allowed = {}  # key -> values a read may return (empty: must miss)
        self.writes = 0

    async def play(self, plan, tally: dict, latencies: list) -> None:
        client, allowed = self.client, self.allowed
        for kind, key in plan:
            t = clock()
            try:
                if kind == 0:
                    value = await client.get(key)
                    tally["gets"] += 1
                    if value is not None:
                        tally["hits"] += 1
                        if value not in allowed.get(key, ()):
                            tally["stale"] += 1
                elif kind == 1:
                    self.writes += 1
                    value = _value(key, self.writes)
                    try:
                        await client.set(key, value)
                    except self.errors:
                        # unacknowledged: the old and the new value may be read
                        allowed[key] = allowed.get(key, set()) | {value}
                        raise
                    allowed[key] = {value}
                    tally["sets"] += 1
                else:
                    # a failed DEL leaves ``allowed`` as it was: a miss is
                    # always allowed
                    await client.delete(key)
                    allowed[key] = set()
                    tally["dels"] += 1
            except self.errors:  # an ERR or transport failure fails the op
                tally["errors"] += 1
                continue
            latencies.append(clock() - t)


def _tally() -> dict:
    return {"gets": 0, "hits": 0, "sets": 0, "dels": 0, "stale": 0, "errors": 0}


async def _cluster_round(inputs, trace: bool, tag: str) -> dict:
    from repro.cluster.client import ClusterClient, ClusterError
    from repro.service.client import ServerError
    from repro.service.server import ProtocolError

    errors = (ClusterError, ServerError, ProtocolError, ConnectionError, OSError,
              asyncio.TimeoutError)
    boot = Ruler()
    async with ServerProcess(CLUSTER_CLI, trace, tag) as server:
        found = await server.wait_for(r"(\S+) @ (\S+):(\d+)", CLUSTER_NODES)
        nodes = {name: (host, int(port)) for name, host, port in found}
        client = ClusterClient(nodes, replicas=2, read_replicas=True)
        deadline = time.monotonic() + BOOT_TIMEOUT
        while not all((await client.ping_all()).values()):
            if time.monotonic() > deadline:
                raise BenchError(f"cluster nodes never answered; see {server.log_path}")
            await asyncio.sleep(0.01)
        setup_s = _boot_time(boot, server)
        for _ in range(WARMUP_PINGS):
            await client.ping_all()
        workers = [_Worker(client, errors) for _ in inputs]
        warm, tally, latencies = _tally(), _tally(), []
        await asyncio.gather(*[w.play(fill, warm, [])
                               for w, (fill, _) in zip(workers, inputs)])

        async def body(ruler):
            for lo in range(0, CLUSTER_OPS_PER_WORKER, CLUSTER_SEGMENT):
                plays = [partial(w.play, plan[lo:lo + CLUSTER_SEGMENT], tally)
                         for w, (_, plan) in zip(workers, inputs)]
                await _segment(ruler, plays, latencies)

        before = await client.stats()
        ruler, cpu, ledger = await _measured(server, client.ping_all, body,
                                             ClusterClient if trace else None)
        status = (await client.cstatus_summary())["totals"]
        stats = await client.stats()
        await client.close()
    launcher = server.result
    # store decisions of the measured phase only (the fill is excluded)
    totals = {k: sum(n["total"][k] for n in stats["nodes"].values())
              - sum(n["total"][k] for n in before["nodes"].values())
              for k in STORE_COUNTERS}
    ops = sum(len(plan) for _, plan in inputs)
    warm_ops = sum(len(fill) for fill, _ in inputs)
    stale = tally["stale"] + warm["stale"]
    errors = tally["errors"] + warm["errors"]
    checks = {
        "no_stale_reads": stale == 0,
        "no_errors": errors == 0,
        "pending_invals_drained": status["pending_invals"] == 0,
    }
    out = _round(setup_s, ops, ruler, cpu, latencies, launcher, ledger)
    out.update({
        "attempted": ops + warm_ops,
        "failed": stale + errors + (0 if checks["pending_invals_drained"] else 1),
        "checks": checks,
        "hit_rate": tally["hits"] / tally["gets"],
        "writes": tally["sets"] + tally["dels"],
        "pending_invals": status["pending_invals"],
        "stale": stale,
        "store": totals,
    })
    return out


# -- runs: rounds until the budget is spent, then pooled figures --------------


def _rounds(name: str, round_fn, inputs, seed: int, seconds: float, trace: bool):
    gc.freeze()
    plain, traced = [], []
    deadline = clock() + seconds
    while clock() < deadline or len(plain) < 2 or (trace and not traced):
        plain.append(asyncio.run(round_fn(inputs, False, f"{name}-seed{seed}")))
        if trace:
            traced.append(asyncio.run(round_fn(inputs, True, f"{name}-seed{seed}-traced")))
    return plain, traced


def _summary(plain: list, traced: list) -> dict:
    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    ops = sum(r["ops"] for r in plain)
    client_cpu = median(r["client_cpu_s"] * r["factor"] * 1e6 / r["ops"] for r in plain)
    server_cpu = median(r["server_cpu_s"] * r["factor"] * 1e6 / r["ops"] for r in plain)
    notes = []
    if client_cpu > server_cpu:
        notes.append(f"load process used more CPU than the server "
                     f"({client_cpu:.3f} vs {server_cpu:.3f} ms/kop)")
    # latencies of every untraced round, each at reference speed
    latencies = [x for r in plain for x in r["latencies"]]
    return {
        "attempted": attempted,
        "failed": failed,
        "checks": merge_checks(rounds),
        "notes": notes,
        "cpu": {"client_ms_per_kop": client_cpu, "server_ms_per_kop": server_cpu},
        "samples": {"rounds": len(plain), "traced_rounds": len(traced),
                    "latencies": len(latencies)},
        "host_speed": {
            "median_factor": median(r["factor"] for r in plain),
            "wall_ops_per_s": ops / sum(r["wall_s"] for r in plain),
        },
        "rounds": [{"setup_s": round(r["setup_s"], 4),
                    "ops_per_s": round(r["ops"] / r["ref_s"], 1),
                    "factor": round(r["factor"], 4),
                    **{f"p{q}_ms": round(percentile(r["latencies"], q) * 1e3, 4)
                       for q in (50, 90, 99)}}
                   for r in plain],
        # reported, not gated: see the README on p99
        "p99_ms": percentile(latencies, 99) * 1e3,
        # timings pooled over the run's rounds, at reference speed
        "end_to_end": {
            "setup_s": median(r["setup_s"] for r in plain),
            "ops_per_s": ops / sum(r["ref_s"] for r in plain),
            "p50_ms": percentile(latencies, 50) * 1e3,
            "p90_ms": percentile(latencies, 90) * 1e3,
            "cpu_ms_per_kop": sum(r["cpu_ref_s"] for r in plain) * 1e6 / ops,
            "hit_rate": median(r["hit_rate"] for r in plain),
            "success_rate": 1.0 - failed / attempted,
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        },
    }


def _layer_metrics(r: dict) -> dict:
    """Per-layer metrics of one traced round (server ledger + counts).

    Times are at reference speed: scaled by the round's factor.
    """
    srv = r["server"]
    led, counts, n, writes = srv["ledger"], srv["counts"], r["ops"], r.get("writes", 0)
    f = r["factor"]

    def get(name, field):
        value = led.get(name, {}).get(field, 0)
        return value * f if field != "calls" else value

    def per_call(name, field):
        calls = get(name, "calls")
        return get(name, field) / calls * 1e6 if calls else 0.0

    covered = sum(e["self_s"] for e in led.values() if e["kind"] == "cpu") * f
    victims = get("replacement.victim", "calls")
    client = r["client_ledger"]["client.call"]
    return {
        "client.call_us": client["incl_s"] * f / client["calls"] * 1e6,
        "protocol.read_frame_us_per_op": get("protocol.read_frame", "self_s") / n * 1e6,
        "protocol.decode_us_per_op": get("protocol.decode", "self_s") / n * 1e6,
        "protocol.encode_us_per_op": get("protocol.encode", "self_s") / n * 1e6,
        "protocol.frames_per_op": get("protocol.read_frame", "calls") / n,
        "server.residual_us_per_op": (srv["cpu_s"] * f - covered) / n * 1e6,
        "server.tasks_per_op": counts.get("server.tasks", 0) / n,
        "server.drains_per_op": counts.get("server.drain", 0) / n,
        "server.writes_per_op": counts.get("server.write", 0) / n,
        "store.get_us": per_call("store.get", "self_s"),
        "store.set_us": per_call("store.set", "self_s"),
        "store.delete_us": per_call("store.delete", "self_s"),
        "store.hash_calls_per_op": counts.get("store.hash", 0) / n,
        "store.admissions_per_kop": r["store"]["reuse_admissions"] / n * 1e3,
        "store.data_evictions_per_kop": r["store"]["data_evictions"] / n * 1e3,
        "store.tag_evictions_per_kop": r["store"]["tag_evictions"] / n * 1e3,
        "replacement.victim_us": per_call("replacement.victim", "self_s"),
        "replacement.victim_calls_per_kop": victims / n * 1e3,
        "replacement.candidates_per_victim": (
            counts.get("replacement.victim#weight", 0) / victims if victims else 0.0),
        "cluster.owner_write_us": per_call("cluster.owner_write", "incl_s"),
        "cluster.inval_per_write": get("cluster.inval", "calls") / writes if writes else 0.0,
        "cluster.inval_us": per_call("cluster.inval", "incl_s"),
        "cluster.repl_per_write": get("cluster.repl", "calls") / writes if writes else 0.0,
        "cluster.repl_us": per_call("cluster.repl", "incl_s"),
    }


def _per_layer(summary: dict, plain: list, traced: list) -> dict:
    layers = [_layer_metrics(r) for r in traced]
    out = {k: median(m[k] for m in layers) for k in layers[0]}
    out["client.cpu_ms_per_kop"] = summary["cpu"]["client_ms_per_kop"]
    out["server.cpu_ms_per_kop"] = summary["cpu"]["server_ms_per_kop"]
    out["trace.overhead_frac"] = 1.0 - (median(r["ops"] / r["ref_s"] for r in traced)
                                        / median(r["ops"] / r["ref_s"] for r in plain))
    return out


def run_serve_read(seed: int, seconds: float, trace: bool) -> dict:
    ruler = Ruler()
    inputs = serve_read_inputs(seed)
    build_s = inputs[2] * ruler.scale(inputs[2])
    plain, traced = _rounds("serve-read", _serve_read_round, inputs, seed, seconds, trace)
    # one connection pins the arrival order: every round, traced or not,
    # must see the same hits, sets and store decisions
    first = (plain[0]["tally"], plain[0]["store"])
    for r in plain + traced:
        r["checks"]["repeats_exactly"] = (r["tally"], r["store"]) == first
        if not r["checks"]["repeats_exactly"]:
            r["failed"] += 1
    summary = _summary(plain, traced)
    summary["deterministic"] = {**first[0], **first[1]}
    if trace:
        summary["per_layer"] = _per_layer(summary, plain, traced)
        summary["per_layer"]["workloads.build_s"] = build_s
    return summary


def run_cluster_churn(seed: int, seconds: float, trace: bool) -> dict:
    plans = cluster_inputs(seed)
    plain, traced = _rounds("cluster-churn", _cluster_round, plans, seed, seconds, trace)
    summary = _summary(plain, traced)
    summary["stale_reads"] = sum(r["stale"] for r in plain + traced)
    if trace:
        summary["per_layer"] = _per_layer(summary, plain, traced)
        summary["per_layer"]["cluster.pending_invals"] = max(
            r["pending_invals"] for r in plain + traced)
    return summary
