"""Declarative wire-protocol verb spec — the single source of truth.

FLOW003 (:func:`repro.devtools.flow.checks.check_protocol`) extracts the
verbs the servers actually dispatch and the clients actually send, and
diffs both sets against :data:`SPEC`.  Adding a wire verb therefore takes
four edits that must land together or CI fails:

1. a :class:`Verb` entry here, naming its layer(s);
2. the server dispatch arm in ``_serve_frame``, comparing the local
   ``cmd`` (the extraction keys on that repo convention);
3. a ``VERB_IDS`` entry in :data:`CODEC_FILE`;
4. at least one client sender — a ``*.call("VERB", ...)`` transport call.

Layers: ``"service"`` is the base cache protocol served by
``repro.service.server.CacheServer``; ``"cluster"`` is the peer protocol
served by ``repro.cluster.node.ClusterServer`` on top of it.  ``SET`` and
``DEL`` appear in both because the cluster server intercepts them for
owner routing while plain cache servers handle them directly.

Every request additionally accepts one optional trace field
``T=<trace-id>/<span-id>`` (:mod:`repro.obs.dist`), a flagged frame field
split off before dispatch; it is a field, not a verb, so it has no
:class:`Verb` entry.
"""

from __future__ import annotations

from dataclasses import dataclass

#: layer name -> repo-relative server file whose dispatch defines the layer
SERVER_FILES = {
    "service": "repro/service/server.py",
    "cluster": "repro/cluster/node.py",
}

#: repo-relative client files whose ``.call("VERB", ...)`` calls are senders
CLIENT_FILES = (
    "repro/service/client.py",
    "repro/cluster/node.py",
    "repro/cluster/client.py",
)

#: repo-relative codec file whose ``VERB_IDS`` dict is the verb-id table
CODEC_FILE = "repro/service/protocol.py"


@dataclass(frozen=True)
class Verb:
    """One wire verb: name, serving layers, and a summary."""

    name: str
    layers: tuple
    summary: str


SPEC = (
    Verb("GET", ("service",), "read a value by key"),
    Verb("SET", ("service", "cluster"), "store a value (cluster: routed)"),
    Verb("DEL", ("service", "cluster"), "delete a key (cluster: routed)"),
    Verb("MGET", ("service",), "read many keys in one frame"),
    Verb("MSET", ("service",), "store many pairs in one frame"),
    Verb("MDEL", ("service",), "delete many keys in one frame"),
    Verb("STATS", ("service",), "per-shard + aggregate stats snapshot"),
    Verb("METRICS", ("service",), "obs registry in Prometheus text format"),
    Verb("TRACE", ("service",), "drain the node's trace ring (JSONL batch)"),
    Verb("PING", ("service",), "liveness round-trip"),
    Verb("QUIT", ("service",), "close this connection gracefully"),
    Verb("REPL", ("cluster",), "owner pushes a versioned replica to a peer"),
    Verb("INVAL", ("cluster",), "owner invalidates a peer replica up to a version"),
    Verb("PUTS", ("cluster",), "peer tells the owner it dropped its replica"),
    Verb("RGET", ("cluster",), "read a peer's replica copy"),
    Verb("CSTATUS", ("cluster",), "node's cluster-level status block"),
    Verb("DRAIN", ("cluster",), "stop accepting and hand keys off"),
)


def verbs_for_layer(layer: str) -> set:
    """Names of the verbs declared for ``layer``."""
    return {verb.name for verb in SPEC if layer in verb.layers}


def documented_verbs() -> set:
    """Every declared verb name, across all layers."""
    return {verb.name for verb in SPEC}
