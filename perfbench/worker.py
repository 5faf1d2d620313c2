"""Run one workload once in this (fresh) interpreter; print one JSON line.

Usage, from the repository root::

    python3 perfbench/worker.py --workload bulk_lossy --seed 1 [--trace]

``perfbench/run.py`` starts one of these per measured run, so no
process-global state (plan and codec caches, session flow ids, the
counters in ``repro.machine.accounting``) carries from one run into
the next.  ``--trace`` makes this the traced run: every layer's public
entry points record spans, the spans are written under
``perfbench/out/``, and per-layer self times are returned.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def calibrate() -> float:
    """Seconds this interpreter takes for a fixed piece of pure-Python
    work (dict inserts, a keyed sort, a string walk) that touches no
    code of the program under test.  ``run.py`` scales wall-clock
    metrics by it, so a machine that is slower for a while (a busy
    neighbour on a shared host) does not read as a slower program."""
    start = time.perf_counter()
    table = {}
    for i in range(60_000):
        table[i * 7919 % 100_003] = (i, str(i))
    total = 0
    for key, (i, text) in sorted(table.items(), key=lambda kv: kv[1][0] % 977):
        total += len(text) + (key & 15)
    sorted((i * 2654435761) % 1_000_003 for i in range(50_000))
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import probes
    import workloads

    meters = probes.Meters()
    meters.install()
    tracer = None
    if args.trace:
        tracer = probes.SpanTracer(args.workload)
        tracer.install()
    result = workloads.run(args.workload, args.seed, meters, tracer)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    # After the peak-RSS reading, so calibration memory never counts.
    result["calibration_s"] = statistics.median(calibrate() for _ in range(3))
    if tracer is not None:
        result["self_s"] = tracer.layer_self_s()
        result["spans"] = len(tracer.spans)
        path = OUT / f"spans-{args.workload}-{args.seed}.json.gz"
        tracer.write(path)
        result["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
