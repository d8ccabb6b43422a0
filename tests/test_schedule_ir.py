"""Unit tests for the schedule IR (ChunkRange, CommOp, Schedule)."""

from fractions import Fraction

import numpy as np
import pytest

from repro.collectives import build_schedule
from repro.collectives.schedule import ChunkRange, CommOp, OpKind, Schedule
from repro.topology import Torus2D


class TestChunkRange:
    def test_nth_of(self):
        c = ChunkRange.nth_of(2, 4)
        assert c.lo == Fraction(1, 2)
        assert c.hi == Fraction(3, 4)
        assert c.fraction == Fraction(1, 4)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            ChunkRange(Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            ChunkRange(Fraction(3, 4), Fraction(1, 2))
        with pytest.raises(ValueError):
            ChunkRange(Fraction(0), Fraction(3, 2))

    def test_overlap(self):
        a = ChunkRange(Fraction(0), Fraction(1, 2))
        b = ChunkRange(Fraction(1, 4), Fraction(3, 4))
        c = ChunkRange(Fraction(1, 2), Fraction(1))
        assert a.overlaps(b)
        assert b.overlaps(a)
        assert not a.overlaps(c)  # half-open intervals: [0,1/2) vs [1/2,1)

    def test_contains(self):
        outer = ChunkRange(Fraction(0), Fraction(1))
        inner = ChunkRange(Fraction(1, 4), Fraction(1, 2))
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_bytes_of(self):
        c = ChunkRange.nth_of(0, 8)
        assert c.bytes_of(1024) == 128.0

    def test_unit_span(self):
        c = ChunkRange(Fraction(1, 4), Fraction(1, 2))
        assert c.unit_span(8) == (2, 4)

    def test_unit_span_misaligned_raises(self):
        c = ChunkRange(Fraction(1, 3), Fraction(2, 3))
        with pytest.raises(ValueError):
            c.unit_span(8)


class TestCommOp:
    def test_self_send_rejected(self):
        with pytest.raises(ValueError):
            CommOp(OpKind.REDUCE, 1, 1, ChunkRange.nth_of(0, 4), step=1)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            CommOp(OpKind.REDUCE, 0, 1, ChunkRange.nth_of(0, 4), step=0)


class TestScheduleQueries:
    @pytest.fixture()
    def ring16(self):
        return build_schedule("ring", Torus2D(4, 4))

    def test_num_steps(self, ring16):
        assert ring16.num_steps == 30  # 2 * (16 - 1)

    def test_granularity(self, ring16):
        assert ring16.granularity == 16

    def test_ops_sorted_by_step(self, ring16):
        steps = [op.step for op in ring16.ops]
        assert steps == sorted(steps)

    def test_steps_iterator_partitions_ops(self, ring16):
        total = sum(len(ops) for _, ops in ring16.steps())
        assert total == len(ring16.ops)

    def test_ops_at_step(self, ring16):
        assert len(ring16.ops_at_step(1)) == 16  # one send per node

    def test_ops_from_and_to(self, ring16):
        assert len(ring16.ops_from(0)) == 30
        assert len(ring16.ops_to(0)) == 30

    def test_bytes_sent_per_node(self, ring16):
        sent = ring16.bytes_sent_per_node(16 * 1024)
        # Each node forwards 30 chunks of 1 KiB.
        assert all(abs(v - 30 * 1024) < 1e-6 for v in sent.values())

    def test_total_data_fraction(self, ring16):
        # 16 nodes x 30 chunk sends of 1/16 each.
        assert ring16.total_data_fraction() == Fraction(30 * 16, 16)

    def test_check_endpoints_accepts_valid(self, ring16):
        ring16.check_endpoints()

    def test_check_endpoints_rejects_invalid(self):
        topo = Torus2D(2, 2)
        bad = Schedule(
            topology=topo,
            ops=[CommOp(OpKind.REDUCE, 0, 99, ChunkRange.nth_of(0, 4), step=1)],
            algorithm="bad",
        )
        with pytest.raises(ValueError):
            bad.check_endpoints()

    def test_max_step_link_overlap_contention_free(self, ring16):
        assert ring16.max_step_link_overlap() == 1

    def test_route_of_uses_topology(self, ring16):
        op = ring16.ops[0]
        assert ring16.route_of(op) == ring16.topology.route(op.src, op.dst)


class TestColumnBacked:
    # Rows: src, dst, step, kind, flow, lo, hi at granularity 8.
    TABLE = np.array([
        [1, 0, 2, 1, 0, 4, 8],
        [2, 3, 1, 0, 1, 4, 8],
        [0, 1, 1, 0, 0, 0, 4],
    ]).T

    def test_sorts_rows_and_reduces_granularity(self):
        topo = Torus2D(2, 2)
        schedule = Schedule.from_columns(topo, self.TABLE, 8, "toy", {})
        assert (schedule.num_ops, schedule.num_steps) == (3, 2)
        assert schedule.granularity == 2
        half, whole = Fraction(1, 2), Fraction(1)
        assert schedule.ops == [
            CommOp(OpKind.REDUCE, 0, 1, ChunkRange(Fraction(0), half), 1, 0),
            CommOp(OpKind.REDUCE, 2, 3, ChunkRange(half, whole), 1, 1),
            CommOp(OpKind.GATHER, 1, 0, ChunkRange(half, whole), 2, 0),
        ]
        # One ChunkRange object per distinct chunk.
        assert schedule.ops[1].chunk is schedule.ops[2].chunk

    @pytest.mark.parametrize("row,value", [(1, 1), (2, 0), (5, 8), (6, 9)])
    def test_rejects_invalid_rows(self, row, value):
        table = self.TABLE.copy()
        table[row, 0] = value
        with pytest.raises(ValueError, match="invalid op table"):
            Schedule.from_columns(Torus2D(2, 2), table, 8, "toy", {})
