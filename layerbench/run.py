"""Run one benchmark workload and print its metrics.

Usage (from the checkout root)::

    python3 layerbench/run.py --workload sim-mix --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any correctness check failed, and the benchmark refuses to
run (exit 2, no result) unless this checkout's ``src/repro`` is the
package it imports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from layerbench.common import (  # noqa: E402
    BenchError, cpu_ticks, host_facts, import_repro, steal_frac,
)
from layerbench.metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


#: host CPU steal above which a run carries a warning note
STEAL_NOTE = 0.05


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``workload`` and return its raw result (``run.py`` minus printing)."""
    if workload == "sim-mix":
        from layerbench import sim_mix

        return sim_mix.run(seed, seconds, trace)
    from layerbench import served

    if workload == "serve-read":
        return served.run_serve_read(seed, seconds, trace)
    return served.run_cluster_churn(seed, seconds, trace)


def final_line(result: dict, trace: bool) -> dict:
    """The contract's last line: verdict, counts and the metric set."""
    if trace:
        # a layer the workload does not exercise reports 0
        table, values = PER_LAYER, {name: result["per_layer"].get(name, 0.0)
                                    for name, _, _ in PER_LAYER}
    else:
        table, values = END_TO_END, result["end_to_end"]
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit, _better in table}
    return {
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the load generator and the server it starts share one CPU: on a
    # shared virtual machine, two processes on two vCPUs lost up to 3x in
    # wall-clock throughput whenever the hypervisor stole time, while one
    # vCPU stayed within about 10%
    host = host_facts()
    host["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {host["cpu"]})
    try:
        import_repro()
    except BenchError as exc:
        print(f"layerbench: refusing to run: {exc}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    ticks = cpu_ticks()
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    host["steal_frac"] = steal_frac(ticks, cpu_ticks())
    line = final_line(result, trace)
    notes = list(result.get("notes", ()))
    if host["steal_frac"] > STEAL_NOTE:
        notes.append(f"the hypervisor took {host['steal_frac']:.0%} of CPU time "
                     "during the run: wall-clock figures are unreliable")
    detail = {key: value for key, value in result.items()
              if key not in ("end_to_end", "per_layer", "attempted", "failed")}
    detail.update(workload=args.workload, seed=args.seed, trace=trace, host=host,
                  notes=notes)
    print(f"layerbench {args.workload} seed={args.seed} trace={int(trace)} "
          f"host nproc={host['nproc']} python={host['python']} "
          f"loadavg={host['loadavg_1m']:.2f}")
    for name, metric in line["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    for note in notes:
        print(f"  note: {note}")
    print(f"  correct={line['correct']} attempted={line['attempted']} "
          f"failed={line['failed']}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
