"""Run the stock ``repro`` server CLI in this process, optionally traced.

Usage (from the checkout root)::

    python3 layerbench/launcher.py --out FILE [--trace] -- serve --port 0 ...
    python3 layerbench/launcher.py --out FILE [--trace] -- cluster serve ...

Everything after ``--`` is handed unchanged to ``repro.__main__.main``, so
the server under test is the one ``repro serve`` / ``repro cluster serve``
starts.  With ``--trace`` the server-side layer boundaries are wrapped
first (see ``layers.install_server``) and every asyncio Task is counted.

SIGUSR1 marks the start and then the end of the measured phase: the load
generator sends it, then a PING, so the mark lands between requests.  At
exit (SIGTERM drains the server as usual) the launcher writes ``FILE``:
process CPU seconds and, when traced, the span ledger and event counts of
the measured phase; the raw spans go next to it as ``.npz``.
"""

from __future__ import annotations

import argparse
import resource
import signal
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from layerbench.common import BenchError, import_repro, write_json  # noqa: E402
from layerbench.spans import Patcher, SpanLog  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    try:
        import_repro()
    except BenchError as exc:
        print(f"layerbench launcher: {exc}", file=sys.stderr)
        return 2
    import asyncio

    from repro.__main__ import main as repro_main

    from layerbench.layers import counting_task_policy, install_server

    log = SpanLog()
    if args.trace:
        install_server(log, Patcher())
        asyncio.set_event_loop_policy(counting_task_policy(log))
    marks = []

    def on_mark(_signum, _frame):
        marks.append((time.process_time(), *log.mark()))

    signal.signal(signal.SIGUSR1, on_mark)
    code = repro_main(cli)
    result = {
        "exit_code": code,
        "marks": len(marks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if len(marks) >= 2:
        (cpu0, lo, counts0), (cpu1, hi, counts1) = marks[0], marks[1]
        result["cpu_s"] = cpu1 - cpu0
        result["counts"] = {k: v - counts0.get(k, 0) for k, v in counts1.items()}
        if args.trace:
            result["ledger"] = log.ledger(lo, hi)
            log.save(args.out.with_suffix(".npz"))
    write_json(args.out, result)
    return code


if __name__ == "__main__":
    sys.exit(main())
