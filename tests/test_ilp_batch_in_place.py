"""The observer-only batch path reads rows where they lie.

A wire plan that only checksums — the default Internet checksum or any
``IntegrityPolicy`` — runs :meth:`CompiledPlan.run_batch` without a 2-D
word pack: each row's finalizers read it in place.  The property tests
pin that path to per-row :meth:`CompiledPlan.run` over mixed batches of
``bytes``, empty rows and multi-segment chains cut at odd offsets; the
deterministic tests pin its copy accounting.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.buffers.chain import BufferChain
from repro.buffers.segment import Segment
from repro.ilp.compiler import PipelineCompiler
from repro.integrity import IntegrityPolicy
from repro.machine.accounting import datapath_counters, integrity_counters
from repro.machine.profile import MIPS_R2000
from repro.stages.encrypt import WordXorStage
from repro.transport.alf.sender import WIRE_CHECKSUM, wire_pipeline

POLICIES = {
    "default": None,
    "full": IntegrityPolicy.full(),
    "spans": IntegrityPolicy.of_spans([(0, 16), (33, 71), (200, 257)]),
    "headers_only": IntegrityPolicy.headers_only(64),
    "none": IntegrityPolicy.none(),
}


# Compiled privately per policy: explicit ``full`` and the default
# checksum share a plan-cache key, and only the former charges the
# integrity counters.
_PLANS = {
    name: PipelineCompiler(MIPS_R2000).compile(
        wire_pipeline(None, integrity=policy)
    )
    for name, policy in POLICIES.items()
}


def _chain(data: bytes, cuts: list[int]) -> tuple[BufferChain, Segment]:
    """A chain over ``data`` split at ``cuts``, every window sharing one
    backing segment (returned, so the test can read its refcount)."""
    base = Segment.wrap(bytes(data), label="row")
    bounds = [0, *sorted({min(c, len(data)) for c in cuts}), len(data)]
    chain = BufferChain(
        base.subview(lo, hi - lo)
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    )
    return chain, base


@st.composite
def rows(draw):
    """A mixed batch: bytes, empty rows and odd-cut multi-segment chains."""
    kind = draw(st.sampled_from(["bytes", "empty", "chain"]))
    if kind == "empty":
        return b""
    # Lengths drawn uniformly: odd tails, partial final words, and rows
    # long enough to run past every policy's covered prefix.
    n = draw(st.integers(min_value=1, max_value=400))
    data = draw(st.binary(min_size=n, max_size=n))
    if kind == "bytes":
        return data
    # Odd offsets put segment boundaries mid-word and mid-16-bit-lane.
    cuts = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(data)).map(lambda c: c | 1),
            min_size=1,
            max_size=4,
        )
    )
    return (data, cuts)


class TestInPlaceBatchProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(rows(), min_size=1, max_size=6),
        st.sampled_from(sorted(POLICIES)),
    )
    def test_matches_per_row_run(self, specs, policy):
        plan = _PLANS[policy]
        batch_rows, bases = [], []
        for spec in specs:
            if isinstance(spec, tuple):
                chain, base = _chain(*spec)
                batch_rows.append(chain)
                bases.append(base)
            else:
                batch_rows.append(spec)
        refcounts = [base.refcount for base in bases]
        linear = [
            row.linearize() if isinstance(row, BufferChain) else row
            for row in batch_rows
        ]

        integrity = integrity_counters()
        covered0, skipped0 = integrity.covered_bytes, integrity.skipped_bytes
        batch = plan.run_batch(batch_rows)
        folded = (
            integrity.covered_bytes - covered0
            + integrity.skipped_bytes - skipped0
        )

        expected = [plan.run(data) for data in linear]
        assert batch.outputs == [out for out, _ in expected]
        assert all(isinstance(out, bytes) for out in batch.outputs)
        assert batch.observations == {
            WIRE_CHECKSUM: [obs[WIRE_CHECKSUM] for _, obs in expected]
        }
        # Input chains are read, never retained or released.
        assert [base.refcount for base in bases] == refcounts
        for row in batch_rows:
            if isinstance(row, BufferChain):
                assert all(segment.alive for segment in row.segments)
        if POLICIES[policy] is not None:
            assert folded == sum(len(data) for data in linear)
        pipeline = wire_pipeline(None, integrity=POLICIES[policy])
        per_row = sum(
            plan.execute(pipeline, data)[1].total_cycles for data in linear
        )
        assert batch.report.total_cycles == pytest.approx(per_row)
        assert batch.report.payload_bytes == sum(len(d) for d in linear)

        for row in batch_rows:
            if isinstance(row, BufferChain):
                row.release()
        assert all(base.refcount == 1 for base in bases)
        for base in bases:
            base.release()


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_observer_batch_never_packs_and_linearizes_each_chain_once(policy):
    plan = _PLANS[policy]
    chains = [_chain(bytes(range(n % 251)) * 3, [5, 17, 101])
              for n in (41, 130, 250)]
    batch_rows = [chains[0][0], b"plain row", chains[1][0], b"", chains[2][0]]
    chain_bytes = sum(len(chain) for chain, _ in chains)

    counters = datapath_counters()
    counters.reset()
    batch = plan.run_batch(batch_rows)

    assert "batch-gather" not in counters.copies_by_label
    assert "pack-words" not in counters.copies_by_label
    assert counters.copies == len(chains)
    assert counters.copies_by_label == {"linearize": chain_bytes}
    assert batch.n_adus == len(batch_rows)
    for chain, base in chains:
        chain.release()
        base.release()


def test_transforming_plan_still_packs():
    plan = PipelineCompiler(MIPS_R2000).compile(
        wire_pipeline(None, encrypt=WordXorStage(0x5A5A5A5A))
    )
    chain, base = _chain(b"secret payload bytes" * 4, [3, 9])
    counters = datapath_counters()
    counters.reset()
    batch = plan.run_batch([chain, b"clear"])
    assert counters.copies_by_label["batch-gather"] == len(chain)
    assert batch.outputs[0] == plan.run(chain.linearize())[0]
    chain.release()
    base.release()
