"""Unit tests for Buffer, PoolGroup and expression evaluation."""

import threading

import numpy as np
import pytest

from repro.dsl import (
    Case,
    Cast,
    Condition,
    Const,
    Exp,
    Float,
    Image,
    Int,
    Min,
    Select,
    Variable,
)
from repro.runtime import Buffer, evaluate_cases, evaluate_expr, make_index_grids
from repro.runtime.buffers import PoolGroup, execution_slot


class TestBuffer:
    def test_for_region_shape_and_origin(self):
        b = Buffer.for_region([(2, 5), (10, 12)], np.float32)
        assert b.data.shape == (4, 3)
        assert b.origin == (2, 10)

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            Buffer.for_region([(5, 2)], np.float32)

    def test_origin_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Buffer(np.zeros((2, 2)), (0,))

    def test_gather_translates_origin(self):
        b = Buffer(np.arange(12).reshape(3, 4).astype(float), (1, 2))
        out = b.gather([np.array([1, 2]), np.array([2, 3])])
        assert list(out) == [0.0, 5.0]

    def test_gather_clips_out_of_range(self):
        b = Buffer(np.arange(4).astype(float), (0,))
        out = b.gather([np.array([-5, 10])])
        assert list(out) == [0.0, 3.0]

    def test_store_and_read_region(self):
        b = Buffer.for_region([(0, 3), (0, 3)], np.float32)
        b.store_region([(1, 2), (1, 2)], np.ones((2, 2), dtype=np.float32))
        assert b.read_region([(1, 2), (1, 2)]).sum() == 4
        assert b.data.sum() == 4


class TestPoolGroup:
    def test_a_slot_has_one_pool_whichever_thread_holds_it(self):
        group = PoolGroup()
        own = group.get()
        with execution_slot(0):
            slot0 = group.get()
        assert slot0 is not own
        assert group.get() is own
        got = {}

        def take(slot):
            with execution_slot(slot):
                got.setdefault(slot, []).append(group.get())

        for slot in (0, 1, 0):
            t = threading.Thread(target=take, args=(slot,))
            t.start()
            t.join()
        # BufferPool is a dataclass: == compares contents, so use `is`
        assert all(pool is slot0 for pool in got[0])
        assert got[1][0] is not own and got[1][0] is not slot0
        assert group.stats()["pools"] == 3


class TestIndexGrids:
    def test_grid_shapes_broadcast(self):
        grids = make_index_grids([(0, 2), (5, 8)])
        assert grids[0].shape == (3, 1)
        assert grids[1].shape == (1, 4)
        total = grids[0] + grids[1]
        assert total.shape == (3, 4)

    def test_grid_values(self):
        (g,) = make_index_grids([(3, 5)])
        assert list(g) == [3, 4, 5]


class TestEvaluateExpr:
    def setup_method(self):
        self.x = Variable(Int, "x")
        self.img = Image(Float, "img", [8])
        self.buf = {"img": Buffer(np.arange(8, dtype=np.float32), (0,))}
        (self.grid,) = make_index_grids([(0, 7)])
        self.env = {"x": self.grid}

    def test_const(self):
        assert evaluate_expr(Const(3), self.env, self.buf) == 3

    def test_variable(self):
        out = evaluate_expr(self.x, self.env, self.buf)
        assert list(out) == list(range(8))

    def test_unbound_variable_raises(self):
        with pytest.raises(NameError):
            evaluate_expr(Variable(Int, "zz"), self.env, self.buf)

    def test_arithmetic(self):
        out = evaluate_expr(self.x * 2 + 1, self.env, self.buf)
        assert list(out) == [1, 3, 5, 7, 9, 11, 13, 15]

    def test_floordiv(self):
        out = evaluate_expr(self.x // 3, self.env, self.buf)
        assert list(out) == [0, 0, 0, 1, 1, 1, 2, 2]

    def test_access_gathers(self):
        out = evaluate_expr(self.img(self.x), self.env, self.buf)
        assert list(out) == list(range(8))

    def test_access_with_offset(self):
        out = evaluate_expr(self.img(self.x - 1), self.env, self.buf)
        # clipped at the left edge
        assert list(out) == [0, 0, 1, 2, 3, 4, 5, 6]

    def test_missing_buffer_raises(self):
        other = Image(Float, "other", [8])
        with pytest.raises(KeyError):
            evaluate_expr(other(self.x), self.env, self.buf)

    def test_mathcall(self):
        out = evaluate_expr(Min(self.x, 3), self.env, self.buf)
        assert max(out) == 3

    def test_exp(self):
        out = evaluate_expr(Exp(self.x * 0.0), self.env, self.buf)
        assert np.allclose(out, 1.0)

    def test_select(self):
        e = Select(Condition(self.x, "<", 4), 1.0, 2.0)
        out = evaluate_expr(e, self.env, self.buf)
        assert list(out) == [1, 1, 1, 1, 2, 2, 2, 2]

    def test_cast(self):
        out = evaluate_expr(Cast(Int, self.img(self.x) * 1.9), self.env, self.buf)
        assert out.dtype == np.int32


class TestEvaluateCases:
    def setup_method(self):
        self.x = Variable(Int, "x")
        (grid,) = make_index_grids([(0, 5)])
        self.env = {"x": grid}

    def test_single_expression(self):
        out = evaluate_cases([self.x * 2], self.env, {}, (6,), np.float32)
        assert list(out) == [0, 2, 4, 6, 8, 10]

    def test_case_order_first_match_wins(self):
        defn = [
            Case(Condition(self.x, "<", 2), 1.0),
            Case(Condition(self.x, "<", 4), 2.0),
        ]
        out = evaluate_cases(defn, self.env, {}, (6,), np.float32)
        assert list(out) == [1, 1, 2, 2, 0, 0]

    def test_unconditional_fallback(self):
        defn = [Case(Condition(self.x, "<", 2), 1.0), Const(9.0)]
        out = evaluate_cases(defn, self.env, {}, (6,), np.float32)
        assert list(out) == [1, 1, 9, 9, 9, 9]

    def test_dtype_respected(self):
        out = evaluate_cases([self.x], self.env, {}, (6,), np.int16)
        assert out.dtype == np.int16
