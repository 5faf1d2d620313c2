"""ACK generation and timestamp machinery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.control.ack import AckGenerator, SelectiveAckTracker
from repro.control.timestamp import JitterEstimator, PlayoutBuffer
from repro.errors import TransportError


class TestAckGenerator:
    def test_in_order_advances(self):
        acks = AckGenerator(delayed_ack_every=1)
        assert acks.on_segment(0, 100)
        assert acks.cumulative == 100
        acks.on_segment(100, 100)
        assert acks.cumulative == 200

    def test_gap_holds_cumulative_and_acks_immediately(self):
        acks = AckGenerator(delayed_ack_every=10)
        acks.on_segment(0, 100)
        assert acks.on_segment(200, 100) is True  # dup-ack trigger
        assert acks.cumulative == 100
        assert acks.pending_islands == 1

    def test_fill_absorbs_islands(self):
        acks = AckGenerator()
        acks.on_segment(0, 100)
        acks.on_segment(200, 100)
        acks.on_segment(300, 100)
        acks.on_segment(100, 100)  # fills the hole
        assert acks.cumulative == 400
        assert acks.pending_islands == 0

    def test_delayed_ack_policy(self):
        acks = AckGenerator(delayed_ack_every=2)
        assert acks.on_segment(0, 10) is False
        assert acks.on_segment(10, 10) is True

    def test_duplicate_data_tolerated(self):
        acks = AckGenerator()
        acks.on_segment(0, 100)
        acks.on_segment(0, 100)
        assert acks.cumulative == 100

    def test_validation(self):
        with pytest.raises(TransportError):
            AckGenerator(delayed_ack_every=0)
        with pytest.raises(TransportError):
            AckGenerator().on_segment(-1, 5)

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(list(range(10))))
    def test_any_arrival_order_converges(self, order):
        """However segments arrive, once all are in, the cumulative point
        covers everything."""
        acks = AckGenerator()
        for index in order:
            acks.on_segment(index * 10, 10)
        assert acks.cumulative == 100
        assert acks.pending_islands == 0


class TestSelectiveAck:
    def test_records_and_dedups(self):
        tracker = SelectiveAckTracker()
        assert tracker.on_adu(3) is True
        assert tracker.on_adu(3) is False
        assert tracker.received_names() == {3}

    def test_missing_below_highest(self):
        tracker = SelectiveAckTracker()
        for sequence in (0, 2, 5):
            tracker.on_adu(sequence)
        assert tracker.missing_below_highest() == [1, 3, 4]

    def test_ack_payload(self):
        tracker = SelectiveAckTracker()
        tracker.on_adu(1)
        payload = tracker.ack_payload()
        assert payload["highest"] == 1
        assert payload["missing"] == [0]
        assert payload["cum"] == 0
        assert payload["ranges"] == [(1, 2)]

    def test_floor_absorbs_ranges_as_holes_fill(self):
        tracker = SelectiveAckTracker()
        for sequence in (0, 1, 3, 4, 7):
            tracker.on_adu(sequence)
        payload = tracker.ack_payload()
        assert payload["cum"] == 2
        assert payload["ranges"] == [(3, 5), (7, 8)]
        assert payload["missing"] == [2, 5, 6]
        tracker.on_adu(2)  # fills the floor's hole: [3, 5) joins it
        assert tracker.floor == 5
        assert tracker.ranges() == [(7, 8)]
        tracker.on_adu(6)  # bridges nothing yet, extends [7, 8) down
        tracker.on_adu(5)
        payload = tracker.ack_payload()
        assert payload["cum"] == 8
        assert payload["ranges"] == []
        assert payload["missing"] == []
        assert len(tracker) == 8
        assert tracker.on_adu(4) is False  # below the floor: duplicate

    def test_bridging_arrival_merges_neighbours(self):
        tracker = SelectiveAckTracker()
        for sequence in (2, 4):
            tracker.on_adu(sequence)
        assert tracker.ranges() == [(2, 3), (4, 5)]
        tracker.on_adu(3)
        assert tracker.ranges() == [(2, 5)]
        assert 3 in tracker and 1 not in tracker and 5 not in tracker
        assert tracker.received_names() == {2, 3, 4}

    def test_negative_rejected(self):
        with pytest.raises(TransportError):
            SelectiveAckTracker().on_adu(-1)


class TestJitter:
    def test_first_packet_no_jitter(self):
        estimator = JitterEstimator()
        assert estimator.on_packet(0.0, 0.1) == 0.0

    def test_constant_transit_zero_jitter(self):
        estimator = JitterEstimator()
        for n in range(10):
            estimator.on_packet(n * 0.01, n * 0.01 + 0.05)
        assert estimator.jitter == pytest.approx(0.0)

    def test_variation_raises_jitter(self):
        estimator = JitterEstimator()
        estimator.on_packet(0.0, 0.05)
        estimator.on_packet(0.01, 0.08)  # transit jumped by 20ms
        assert estimator.jitter > 0.0


class TestPlayout:
    def test_on_time_scheduled(self):
        playout = PlayoutBuffer(playout_offset=0.1)
        play_time = playout.on_unit(1, sender_timestamp=0.0, arrival_time=0.05)
        assert play_time == pytest.approx(0.1)
        assert playout.on_time_count == 1

    def test_late_dropped(self):
        playout = PlayoutBuffer(playout_offset=0.1)
        assert playout.on_unit(1, 0.0, 0.2) is None
        assert playout.late_count == 1

    def test_bigger_offset_tolerates_more(self):
        tight = PlayoutBuffer(playout_offset=0.05)
        loose = PlayoutBuffer(playout_offset=0.5)
        for unit, arrival in enumerate((0.06, 0.3, 0.45)):
            tight.on_unit(unit, 0.0, arrival)
            loose.on_unit(unit, 0.0, arrival)
        assert loose.on_time_count > tight.on_time_count

    def test_validation(self):
        with pytest.raises(TransportError):
            PlayoutBuffer(-0.1)
