import math

import numpy as np
import pytest

from rrnn import restriction as R
from rrnn.errors import ValidationError
from rrnn.tensor import Parameter


def uniform_plan(m, n, d, k, r):
    return R.plan_restriction(m, n, d, [k] * m, [[r] * n for _ in range(m)])


class TestPlan:
    def test_half_rate_rnn_dimensions(self):
        plan = uniform_plan(2, 1, 200, 200, 0.5)
        assert plan.s == ((100,), (100,))
        assert plan.q == ((100,), (100,))
        assert (plan.s_r, plan.k_r, plan.d_r) == (100, 200, 300)

    def test_no_sharing_is_classical(self):
        for m, n in [(2, 1), (2, 3), (2, 4)]:
            plan = uniform_plan(m, n, 16, 16, 0.0)
            assert plan.s_r == 0
            assert plan.d_r == m * n * 16

    def test_full_sharing_single_matrix(self):
        plan = uniform_plan(2, 4, 16, 16, 1.0)
        assert all(q == 0 for row in plan.q for q in row)
        assert plan.d_r == 16

    def test_rounding_half_away_from_zero(self):
        plan = uniform_plan(2, 1, 5, 5, 0.5)  # 2.5 rounds up, not to even
        assert plan.s[0][0] == 3

    def test_private_blocks_disjoint_and_sized(self):
        plan = uniform_plan(2, 4, 7, 5, 0.3)
        claimed = np.zeros(plan.d_r, dtype=int)
        for i in range(2):
            for j in range(4):
                rows = plan.view_rows(i, j)
                assert len(rows) == plan.d
                private = rows[plan.s[i][j]:]
                assert (private >= plan.s_r).all()
                claimed[private] += 1
        assert claimed[plan.s_r:].max() <= 1  # each private row owned by one view

    @pytest.mark.parametrize("rates", [[[0.5, 0.2, 1.0], [0.0, 0.7, 0.4]],
                                       [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
                                       [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
    def test_expand_index_concatenates_views(self, rates):
        plan = R.plan_restriction(2, 3, 5, [3, 5], rates)
        for i in range(2):
            rows = plan.distinct_rows(i)[plan.expand_index(i, range(plan.n))]
            assert len(rows) == plan.n * plan.d
            for j in range(plan.n):
                assert np.array_equal(rows[j * plan.d:(j + 1) * plan.d], plan.view_rows(i, j))

    @pytest.mark.parametrize("rates", [[[0.5, 0.2, 1.0], [0.0, 0.7, 0.4]],
                                       [[0.2, 0.4, 0.2], [0.8, 0.6, 1.0]],
                                       [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
                                       [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
    def test_distinct_rows_and_expand_index(self, rates):
        plan = R.plan_restriction(2, 3, 5, [3, 5], rates)
        for i in range(2):
            distinct = plan.distinct_rows(i)
            views = np.concatenate([plan.view_rows(i, j) for j in range(plan.n)])
            assert np.array_equal(distinct, np.unique(views))
            assert len(distinct) == max(plan.s[i]) + sum(plan.q[i])
            assert np.array_equal(distinct[plan.expand_index(i, range(plan.n))], views)
            # a gate order permutes whole views
            gates = (2, 0, 1)
            assert np.array_equal(distinct[plan.expand_index(i, gates)],
                                  np.concatenate([plan.view_rows(i, j) for j in gates]))

    @pytest.mark.parametrize("rates", [[[0.5, 0.2, 1.0], [0.0, 0.7, 0.4]],
                                       [[0.6, 0.6, 0.6], [0.2, 0.2, 0.2]]])
    def test_row_width_is_widest_touching_view(self, rates):
        plan = R.plan_restriction(2, 3, 5, [3, 7], rates)
        expect = np.zeros(plan.d_r, dtype=int)
        for i in range(2):
            for j in range(3):
                for row in plan.view_rows(i, j):
                    expect[row] = max(expect[row], plan.k_inputs[i])
        assert np.array_equal(plan.row_width(), expect)

    def test_validation(self):
        with pytest.raises(ValidationError):
            uniform_plan(2, 1, 4, 4, 1.5)
        with pytest.raises(ValidationError):
            uniform_plan(2, 1, 0, 4, 0.5)
        with pytest.raises(ValidationError):
            R.plan_restriction(2, 1, 4, [4], [[0.5], [0.5]])


class TestPool:
    def test_seed_determinism(self):
        plan = uniform_plan(2, 3, 8, 8, 0.5)
        p1 = R.build_pool(plan, 42)
        p2 = R.build_pool(plan, 42)
        assert np.array_equal(p1.W.data, p2.W.data)
        assert np.array_equal(p1.b.data, p2.b.data)

    def test_uniform_bound(self):
        plan = uniform_plan(2, 1, 200, 200, 0.5)
        pool = R.build_pool(plan, 7)
        bound = 1.0 / math.sqrt(200)
        assert np.abs(pool.W.data).max() <= bound
        assert np.abs(pool.b.data).max() <= bound

    def test_trainables_require_grad(self):
        pool = R.build_pool(uniform_plan(2, 1, 4, 4, 0.5), 0)
        assert pool.trainables() == [pool.W, pool.b]
        assert all(isinstance(t, Parameter) for t in pool.trainables())


class TestViews:
    def test_full_sharing_identical_rows(self):
        plan = uniform_plan(2, 1, 6, 6, 1.0)
        assert np.array_equal(plan.view_rows(0, 0), plan.view_rows(1, 0))

    def test_no_sharing_disjoint_rows(self):
        plan = uniform_plan(2, 1, 6, 6, 0.0)
        assert not set(plan.view_rows(0, 0)) & set(plan.view_rows(1, 0))


class TestCounts:
    def test_lstm_layer_table_values(self):
        plan = uniform_plan(2, 4, 200, 200, 0.5)
        c = R.count_parameters(plan)
        assert c.unrestricted == 321_600
        assert c.shared == 7 * 100 * 201 == 140_700
        assert c.restricted == 180_900
        assert 3 * c.restricted == 542_700

    def test_gru_layer_table_values(self):
        plan = uniform_plan(2, 3, 200, 200, 0.5)
        c = R.count_parameters(plan)
        assert c.unrestricted == 241_200
        assert c.restricted == 241_200 - 5 * 100 * 201 == 140_700
        assert 3 * c.restricted == 422_100

    def test_zero_rate_no_savings(self):
        c = R.count_parameters(uniform_plan(2, 4, 32, 16, 0.0))
        assert c.shared == 0 and c.compression == 1.0

    @pytest.mark.parametrize("d", [4, 16, 200])
    @pytest.mark.parametrize("r", [0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 1])
    @pytest.mark.parametrize("mn", [(2, 1), (2, 3), (2, 4)])
    def test_enumeration_equals_closed_form(self, d, r, mn):
        m, n = mn
        k = d
        plan = uniform_plan(m, n, d, k, r)
        c = R.count_parameters(plan)
        s = R.round_half_away(r * d)
        assert c.shared == R.closed_form_shared(m, n, s, k)
        assert c.restricted == c.unrestricted - (m * n - 1) * s * (k + 1)

    def test_nonuniform_k_exact(self):
        # mixed input sizes: enumeration is ground truth, closed form is not
        plan = R.plan_restriction(2, 1, 10, [6, 10], [[0.5], [0.5]])
        c = R.count_parameters(plan)
        # xh view: 10 rows x 6 cols + 10 bias; hh view: 10 x 10 + 10 bias;
        # 5 shared rows double-counted at the min width 6 (+ shared bias)
        assert c.unrestricted == 10 * 7 + 10 * 11
        assert c.shared == 5 * (6 + 1)

    def test_compression_monotone_in_each_rate(self):
        base = [[0.3, 0.3, 0.3], [0.3, 0.3, 0.3]]
        c0 = R.compression_rate(R.plan_restriction(2, 3, 20, [20, 20], base))
        for i in range(2):
            for j in range(3):
                bumped = [row[:] for row in base]
                bumped[i][j] = 0.8
                c1 = R.compression_rate(R.plan_restriction(2, 3, 20, [20, 20], bumped))
                assert c1 <= c0

    @pytest.mark.parametrize("mn", [(2, 1), (2, 3), (2, 4)])
    def test_boundaries(self, mn):
        m, n = mn
        assert R.compression_rate(uniform_plan(m, n, 12, 12, 0.0)) == 1.0
        assert R.compression_rate(uniform_plan(m, n, 12, 12, 1.0)) == 1.0 / (m * n)

    def test_rnn_closed_form_rate(self):
        assert R.compression_rate(uniform_plan(2, 1, 200, 200, 0.5)) == 0.75
        assert R.compression_rate(uniform_plan(2, 1, 200, 200, 1.0)) == 0.5
