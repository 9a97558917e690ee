"""Named perf suites: pinned experiment sets with pinned parameters.

A baseline is only comparable to another recording of *the same work*, so
a suite froze both the experiment list and the
:class:`~repro.experiments.common.ExperimentParams` — unlike ``repro run``,
where the environment may scale workloads up or down.  Two recordings of
one suite on one machine therefore simulate identical cells (same configs,
same seeds, same trace lengths) and differ only by host noise and code
changes, which is exactly what ``repro perf compare`` wants to isolate.

``smoke`` is sized for CI (a couple of minutes on a cold runner); ``sweep``
covers the headline figures at working scale for local regression hunting.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..experiments import registry
from ..experiments.common import ExperimentParams


@dataclass(frozen=True)
class PerfSuite:
    """One named, frozen set of (experiment, params) to record."""

    name: str
    title: str
    #: registry experiment names, recorded in order
    experiments: tuple
    params: ExperimentParams

    def specs(self):
        """The resolved :class:`ExperimentSpec` objects of the suite."""
        return [registry.get(name) for name in self.experiments]


_SUITES = {}


def _add(suite: PerfSuite) -> None:
    if suite.name in _SUITES:
        raise ValueError(f"perf suite {suite.name!r} registered twice")
    for name in suite.experiments:
        registry.get(name)  # fail fast on typos at import time
    _SUITES[suite.name] = suite


_add(PerfSuite(
    name="smoke",
    title="CI-sized regression gate (fig5 at 2 mixes x 4000 refs)",
    experiments=("fig5",),
    params=ExperimentParams(n_workloads=2, n_refs=4000, scale=32, seed=2013),
))

_add(PerfSuite(
    name="sweep",
    title="headline figures at working scale (fig5/fig6/fig7 + table6)",
    experiments=("fig5", "fig6", "fig7", "table6"),
    params=ExperimentParams(n_workloads=4, n_refs=15_000, scale=32, seed=2013),
))

_add(PerfSuite(
    name="service",
    title="serving-layer wire cost (batched replay, live sockets)",
    experiments=("service-wire",),
    params=ExperimentParams(n_workloads=2, n_refs=4000, scale=32, seed=2013),
))

_add(PerfSuite(
    name="micro",
    title="smallest measurable suite (fig1a, seconds of compute)",
    experiments=("fig1a",),
    params=ExperimentParams(n_workloads=1, n_refs=3000, scale=32, seed=2013),
))


def get_suite(name: str) -> PerfSuite:
    """Look up a suite; ``KeyError`` lists the valid names."""
    try:
        return _SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown perf suite {name!r}; valid suites: "
            f"{', '.join(suite_names())}"
        ) from None


def suite_names() -> tuple:
    """Registered suite names, in registration order."""
    return tuple(_SUITES)
