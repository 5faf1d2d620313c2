"""Benchmark-suite configuration.

Each ``bench_*.py``/``test_*`` pair regenerates one table or figure from
the paper (see DESIGN.md's experiment index).  The pytest-benchmark
timing measures the reproduction's own hot path; the experiment's
paper-vs-measured rows are printed to stdout (run with ``-s`` to see
them) and recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple

import pytest


def emit(result) -> None:
    """Print an experiment table beneath the benchmark output."""
    print()
    print(result.format())


@pytest.fixture(scope="session")
def report():
    """The emit helper as a fixture, for readability in benches."""
    return emit


class MedianRatio(NamedTuple):
    """What :func:`interleaved_median_ratio` measured."""

    ratio: float  # median of the per-pair ratios
    pair_ratios: list[float]  # one per pair, in run order
    numerator: dict  # the numerator's median-wall run
    denominator: dict  # the denominator's median-wall run

    @property
    def iqr(self) -> float:
        """Spread of the per-pair ratios (upper minus lower quartile)."""
        lower, _, upper = statistics.quantiles(self.pair_ratios, n=4)
        return upper - lower

    def summary(self) -> dict[str, object]:
        """The JSON record's view: median, spread and every pair."""
        return {
            "median": self.ratio,
            "iqr": self.iqr,
            "pairs": len(self.pair_ratios),
            "pair_ratios": self.pair_ratios,
        }


# Pairs per wall-clock gate.  Odd, so the median is a measured pair; the
# median then moves only when more than half the pairs are disturbed.
# Nine pairs of a sub-second scenario cost a few seconds of wall time; a
# scenario that runs for seconds passes fewer (still odd) pairs to keep
# its gate under half a minute.
GATE_PAIRS = 9


def interleaved_median_ratio(
    numerator, denominator, pairs: int = GATE_PAIRS
) -> MedianRatio:
    """Median wall-time ratio ``numerator / denominator`` over ``pairs``
    interleaved runs.

    ``numerator`` and ``denominator`` are zero-argument callables that
    each run one timed scenario and return a result dict with a
    ``"wall_s"`` entry.  Each pair runs both back to back, alternating
    which goes first, so a slow stretch of a shared host lands on both
    sides of the same pair; the median of the per-pair ratios then
    shrugs off an outlier pair, where a ratio of two independent
    best-ofs does not.  The per-pair ratios come back too, so a record
    shows how far the median sits from its gate relative to the spread.
    """
    num_runs, den_runs, ratios = [], [], []
    for index in range(pairs):
        if index % 2:
            den = denominator()
            num = numerator()
        else:
            num = numerator()
            den = denominator()
        num_runs.append(num)
        den_runs.append(den)
        ratios.append(num["wall_s"] / den["wall_s"])

    def median_run(runs):
        return sorted(runs, key=lambda run: run["wall_s"])[len(runs) // 2]

    return MedianRatio(
        statistics.median(ratios), ratios, median_run(num_runs), median_run(den_runs)
    )


@pytest.fixture(scope="session")
def median_ratio():
    """:func:`interleaved_median_ratio` as a fixture, for the wall-clock
    gates."""
    return interleaved_median_ratio
