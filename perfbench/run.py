"""End-to-end benchmark of the repro ALF/ILP stack, with a traced
per-layer breakdown.

Usage, from the repository root::

    python3 perfbench/run.py --workload bulk_lossy --seed 1 --seconds 30 --trace 0

Each measured run is ``perfbench/worker.py`` in a fresh interpreter
(one process, serial shards, no threads).  ``--seed`` derives
``SUBSEEDS`` input seeds; runs cycle through them until ``--seconds``
is spent, each at least once.  Wall-clock metrics are the median over
all runs.  The simulated and modelled metrics and every per-layer count
are deterministic per input seed: they must repeat exactly across runs
of one input seed, or the run fails.  They are reported as the mean
over the input seeds, because some are bimodal across loss patterns
(on bulk_lossy the last repair lands on one retransmit-timer tick or
the next), and a mean of many seeds moves smoothly where a median
would jump between the modes.

Wall-clock metrics (``adus_per_s``, ``goodput_mb_s``, ``setup_s``)
are reported at a reference interpreter speed: every worker times a
fixed pure-Python calibration (``worker.calibrate``, no program code)
around its run, and the run's medians are scaled by the median
calibration time over ``CALIBRATION_REFERENCE_S``.  On a shared
two-vCPU host the same pure-Python loop drifts by a quarter over
minutes; the scaling roughly halves the run-to-run spread that drift
causes.  Unscaled medians are printed alongside.

With ``--trace 1`` the first input seed runs ``TRACE_BASELINE_RUNS``
times untraced (its counts, and the median the tracing overhead is
measured against), then once traced for per-layer self time.

Every run passes the correctness gate (see ``workloads.py``) or this
program prints no metrics and exits with status 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("bulk_lossy", "fanin_sharded", "secure_large")
#: Input seeds derived from ``--seed``; every run measures all of them.
SUBSEEDS = 10
#: Untraced runs of the first input seed ahead of the traced run.
TRACE_BASELINE_RUNS = 3
#: Calibration time of the reference interpreter speed (seconds).
CALIBRATION_REFERENCE_S = 0.06
#: Hard cap on one worker process.
RUN_TIMEOUT = 150.0
#: Workers run single-threaded: numeric libraries start no thread pools.
WORKER_ENV = dict(
    os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1"
)

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "adus_per_s": "ADU/s",
    "goodput_mb_s": "MB/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_complete_s": "sim_s",
    "adu_latency_p50_ms": "sim_ms",
    "adu_latency_p99_ms": "sim_ms",
    "modelled_cycles_per_adu": "cycles",
}
#: Wall-clock metrics scaled to the reference interpreter speed.
SCALED = ("adus_per_s", "goodput_mb_s", "setup_s")
#: Metrics whose value is the same on every run of one seed.
DETERMINISTIC = (
    "sim_complete_s",
    "adu_latency_p50_ms",
    "adu_latency_p99_ms",
    "modelled_cycles_per_adu",
)

#: Per-layer metrics: name -> unit.  Counts come from the untraced
#: runs; ``*.self_s`` and ``trace.*`` from the traced run.
PER_LAYER = {
    "sim.events_per_adu": "events/ADU",
    "sim.events_after_close": "count",
    "sim.self_s": "s",
    "net.link.packets_per_train": "packets/train",
    "net.link.self_s": "s",
    "net.switch.forwarded": "count",
    "net.switch.queue_drops": "count",
    "net.switch.self_s": "s",
    "net.host.self_s": "s",
    "net.shard.steered_share": "ratio",
    "net.shard.memo_probes_per_packet": "probes/packet",
    "net.shard.max_mean_load": "ratio",
    "net.shard.self_s": "s",
    "transport.alf.acks_per_adu": "ACKs/ADU",
    "transport.alf.sack_entries_per_ack": "entries/ACK",
    "transport.alf.retransmissions_per_adu": "retx/ADU",
    "transport.alf.useful_tx_ratio": "ratio",
    "transport.alf.sender_self_s": "s",
    "transport.alf.receiver_self_s": "s",
    "control.ack.scan_len_per_ack": "seqs/ACK",
    "control.ack.self_s": "s",
    "transport.drain.rows_per_dispatch": "rows/dispatch",
    "transport.drain.scan_visits_per_notify": "visits/notify",
    "transport.drain.self_s": "s",
    "transport.pacing.trains": "count",
    "transport.pacing.backoffs": "count",
    "transport.pacing.stalls": "count",
    "transport.pacing.self_s": "s",
    "transport.session.handshake_s": "s",
    "transport.session.init_attempts": "count",
    "transport.session.self_s": "s",
    "ilp.plan_runs_per_adu": "runs/ADU",
    "ilp.rows_per_run": "rows/run",
    "ilp.plan_cache_hit_rate": "ratio",
    "ilp.self_s": "s",
    "presentation.codec_cache_hit_rate": "ratio",
    "presentation.self_s": "s",
    "buffers.bytes_copied_per_adu": "B/ADU",
    "buffers.read_passes_per_adu": "passes/ADU",
    "buffers.leaks": "count",
    "buffers.self_s": "s",
    "machine.control_instructions_per_adu": "instr/ADU",
    "app.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "trace.attributed_share": "ratio",
}

class RunFailed(Exception):
    """A worker crashed, timed out or failed the correctness gate."""


def run_worker(workload: str, seed: int, trace: bool) -> dict:
    """One measured run in a fresh interpreter; returns its record."""
    command = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(seed)]
    if trace:
        command.append("--trace")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True,
            timeout=RUN_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker exceeded {RUN_TIMEOUT:.0f} s") from exc
    if done.returncode != 0:
        raise RunFailed(
            f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def input_seeds(seed: int) -> list[int]:
    """The input seeds one benchmark seed stands for."""
    return [seed * SUBSEEDS + k for k in range(SUBSEEDS)]


def measure(
    workload: str, seeds: list[int], seconds: float, min_runs: int
) -> list[dict]:
    """Untraced runs, cycling ``seeds``, until ``seconds`` are spent and
    at least ``min_runs`` have run."""
    runs: list[dict] = []
    start = time.perf_counter()
    while True:
        runs.append(run_worker(workload, seeds[len(runs) % len(seeds)], trace=False))
        elapsed = time.perf_counter() - start
        per_run = elapsed / len(runs)
        if len(runs) >= min_runs and elapsed + per_run > seconds:
            return runs


def by_seed(runs: list[dict]) -> dict[int, list[dict]]:
    grouped: dict[int, list[dict]] = {}
    for record in runs:
        grouped.setdefault(record["seed"], []).append(record)
    return grouped


def check(runs: list[dict]) -> list[str]:
    """Gate failures across runs: any run's errors, and any simulated
    or counted value that differs between runs of one input seed."""
    errors = []
    for index, record in enumerate(runs):
        errors.extend(f"run {index}: {error}" for error in record["errors"])
    for seed, group in by_seed(runs).items():
        reference = group[0]["deterministic"]
        for record in group[1:]:
            differing = sorted(
                name for name, value in record["deterministic"].items()
                if reference.get(name) != value
            )
            if differing:
                errors.append(
                    f"two runs of input seed {seed} differ on {differing}"
                )
    return errors


def seed_mean(runs: list[dict], name: str) -> float:
    """Mean over input seeds of a value fixed per input seed."""
    return statistics.fmean(
        group[0]["deterministic"][name] for group in by_seed(runs).values()
    )


def speed(runs: list[dict]) -> float:
    """How much slower than the reference interpreter the runs ran."""
    return (
        statistics.median(record["calibration_s"] for record in runs)
        / CALIBRATION_REFERENCE_S
    )


def wall_medians(runs: list[dict]) -> dict[str, float]:
    """Unscaled median of each wall-clock metric over the runs."""
    per_run = [
        {
            "adus_per_s": record["adus_delivered"] / record["transfer_s"],
            "goodput_mb_s": record["payload_bytes"] / 1e6 / record["transfer_s"],
            "setup_s": record["setup_s"],
            "peak_rss_mb": record["peak_rss_mb"],
        }
        for record in runs
    ]
    return {
        name: statistics.median(values[name] for values in per_run)
        for name in per_run[0]
    }


def end_to_end(runs: list[dict]) -> dict[str, float]:
    """Every end-to-end metric: wall-clock medians at the reference
    speed, deterministic metrics as means over the input seeds."""
    metrics = wall_medians(runs)
    factor = speed(runs)
    metrics["adus_per_s"] *= factor
    metrics["goodput_mb_s"] *= factor
    metrics["setup_s"] /= factor
    for name in DETERMINISTIC:
        metrics[name] = seed_mean(runs, name)
    return metrics


def per_layer(runs: list[dict], traced: dict) -> dict[str, float]:
    """Per-layer counts from the untraced runs, self time from the traced run."""
    counts = runs[0]["deterministic"]
    self_s = traced["self_s"]
    # Timed by the workload's own clock (first send_adu to the last
    # on_complete), independently of the spans whose self times it checks.
    wall = traced["transfer_s"]
    untraced = statistics.median(record["transfer_s"] for record in runs)
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            layer = name[: -len(".self_s")]
            metrics[name] = self_s.get(layer, 0.0)
        elif name.endswith("_self_s"):
            side = name[: -len("_self_s")]
            metrics[name] = self_s.get(side, 0.0)
        elif name in counts:
            metrics[name] = seed_mean(runs, name)
    metrics["transport.session.handshake_s"] = statistics.median(
        record["handshake_s"] for record in runs
    )
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead"] = wall / untraced
    metrics["trace.attributed_share"] = sum(self_s.values()) / wall
    return metrics


def layer_shares(traced: dict) -> list[tuple[str, float]]:
    """Self-time share per layer, largest first (ALF sides combined)."""
    self_s = dict(traced["self_s"])
    self_s["transport.alf"] = self_s.pop("transport.alf.sender", 0.0) + self_s.pop(
        "transport.alf.receiver", 0.0
    )
    total = sum(self_s.values())
    return sorted(
        ((layer, value / total) for layer, value in self_s.items()),
        key=lambda item: -item[1],
    )


def describe(workload: str, runs: list[dict], metrics: dict) -> None:
    """Human-readable lines ahead of the JSON result."""
    seeds = by_seed(runs)
    print(f"workload {workload}: {len(runs)} runs over input seeds "
          f"{sorted(seeds)}, each in a fresh interpreter; "
          f"{runs[0]['offered']} ADUs offered per run")
    raw = wall_medians(runs)
    print(f"  calibration: {speed(runs):.3f}x the reference time; "
          "wall-clock metrics below are scaled to the reference speed")
    for name, unit in END_TO_END.items():
        if name in metrics:
            unscaled = f"  (unscaled {raw[name]:.6g})" if name in SCALED else ""
            print(f"  {name:26s} {metrics[name]:14.6g} {unit}{unscaled}")
    for seed, group in sorted(seeds.items()):
        det = group[0]["deterministic"]
        print(f"  input seed {seed}: {det['latency_samples']} latency samples, "
              f"{det['beyond_p99']} beyond p99")
    if workload == "fanin_sharded":
        print("  open-loop generator runs in simulated time: 0 ms late; "
              "latency counts from each ADU's due time")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.seed < 0:
        parser.error("--seed must be >= 0")
    seeds = input_seeds(args.seed)
    try:
        if args.trace:
            runs = measure(args.workload, seeds[:1], 0.0, TRACE_BASELINE_RUNS)
            traced = run_worker(args.workload, seeds[0], trace=True)
        else:
            runs = measure(args.workload, seeds, args.seconds, SUBSEEDS)
            traced = None
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    errors = check(runs + ([traced] if traced else []))
    attempted = sum(record["offered"] for record in runs)
    failed = sum(record["failed"] for record in runs)
    if errors:
        for error in errors:
            print(f"FAIL {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    if traced is None:
        metrics = end_to_end(runs)
        units = END_TO_END
        describe(args.workload, runs, metrics)
    else:
        metrics = per_layer(runs, traced)
        units = PER_LAYER
        describe(args.workload, runs, {})
        shares = layer_shares(traced)
        top = ", ".join(f"{layer} {share:.1%}" for layer, share in shares[:3])
        print(f"  traced run: top layers by self time: {top}")
        print(f"  tracing overhead {metrics['trace.overhead']:.3f}x "
              f"(traced wall / untraced median); self times sum to "
              f"{metrics['trace.attributed_share']:.1%} of the traced wall")
        print("  time in private event callbacks (link delivery, switch "
              "transmit, pacer release, retransmit and periodic-ACK timers) "
              "lands in sim.self_s until in-program spans exist")
        print(f"  spans written to {traced['spans_file']}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
