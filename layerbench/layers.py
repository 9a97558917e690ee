"""Which public functions of each layer are wrapped, per process role.

Each ``install_*`` function patches the boundaries through ``patcher`` so
that ``patcher.undo()`` restores the untraced program exactly.  Span names
are ``<layer>.<boundary>``; ``sim_mix.layer_metrics`` and
``served._layer_metrics`` read them back by these names.
"""

from __future__ import annotations

from .spans import CPU, WALL, Patcher, SpanLog


def _policy_classes(base):
    stack, seen = [base], []
    while stack:
        cls = stack.pop()
        seen.append(cls)
        stack.extend(cls.__subclasses__())
    return [cls for cls in seen if "victim" in cls.__dict__]


def install_replacement(log: SpanLog, patcher: Patcher) -> None:
    """``ReplacementPolicy.victim`` of every policy, weighing candidates."""
    from repro.replacement import ReplacementPolicy

    for cls in _policy_classes(ReplacementPolicy):
        patcher.patch(cls, "victim", lambda fn: log.wrap_sync(
            "replacement.victim", fn,
            weigh=lambda _self, _set_idx, candidates: len(candidates),
        ))


def install_simulator(log: SpanLog, patcher: Patcher) -> None:
    """Simulator layers: hierarchy, private caches, SLLC, replacement, DRAM."""
    from repro.cache.private_cache import PrivateHierarchy
    from repro.core.reuse_cache import ReuseCache
    from repro.dram.ddr3 import DDR3Memory
    from repro.hierarchy.system import System

    patcher.patch(System, "run", lambda fn: log.wrap_sync("hierarchy.run", fn))
    patcher.patch(PrivateHierarchy, "access",
                  lambda fn: log.wrap_sync("cache.private_access", fn))
    for attr in ("access", "prefetch", "upgrade", "notify_private_eviction"):
        patcher.patch(ReuseCache, attr,
                      lambda fn, attr=attr: log.wrap_sync(f"core.llc_{attr}", fn))
    for attr in ("read", "write"):
        patcher.patch(DDR3Memory, attr,
                      lambda fn, attr=attr: log.wrap_sync(f"dram.{attr}", fn))
    install_replacement(log, patcher)


def install_server(log: SpanLog, patcher: Patcher) -> None:
    """Server-process layers: protocol, server, store, replacement, cluster."""
    import asyncio

    from repro.cluster.node import ClusterNode, PeerClient
    from repro.service import protocol, server, sharding, store, transport
    from repro.service.sharding import ShardedStore

    # the server and the peer transports bind read_frame at import time
    for module in (server, transport):
        patcher.patch(module, "read_frame",
                      lambda fn: log.wrap_async("protocol.read_frame", fn, CPU))
    patcher.patch(server, "decode_request_fields",
                  lambda fn: log.wrap_sync("protocol.decode", fn))
    for attr in ("begin", "finish", "simple"):
        patcher.patch(protocol.FrameEncoder, attr,
                      lambda fn: log.wrap_sync("protocol.encode", fn))
    for attr in ("get", "set", "delete"):
        patcher.patch(ShardedStore, attr,
                      lambda fn, attr=attr: log.wrap_sync(f"store.{attr}", fn))
    for module in (store, sharding):
        patcher.patch(module, "stable_hash",
                      lambda fn: log.wrap_count("store.hash", fn))
    patcher.patch(asyncio.StreamWriter, "write",
                  lambda fn: log.wrap_count("server.write", fn))
    patcher.patch(asyncio.StreamWriter, "drain",
                  lambda fn: log.wrap_count("server.drain", fn))
    for attr in ("handle_set", "handle_delete"):
        patcher.patch(ClusterNode, attr,
                      lambda fn: log.wrap_async("cluster.owner_write", fn, WALL))
    for attr in ("inval", "repl"):
        patcher.patch(PeerClient, attr,
                      lambda fn, attr=attr: log.wrap_async(f"cluster.{attr}", fn, WALL))
    install_replacement(log, patcher)


def install_client(log: SpanLog, patcher: Patcher, client_cls) -> None:
    """Load-process boundary: the key/value verbs of ``client_cls``."""
    for attr in ("get", "set", "delete"):
        patcher.patch(client_cls, attr,
                      lambda fn: log.wrap_async("client.call", fn, WALL))


def counting_task_policy(log: SpanLog):
    """An event-loop policy whose loops count every Task they create."""
    import asyncio

    class _Policy(asyncio.DefaultEventLoopPolicy):
        def new_event_loop(self):
            loop = super().new_event_loop()

            def factory(loop, coro, context=None):
                log.count("server.tasks")
                return asyncio.Task(coro, loop=loop, context=context)

            loop.set_task_factory(factory)
            return loop

    return _Policy()
