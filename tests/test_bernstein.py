"""Basis evaluation: direct recurrence, log-space route, collocation solves."""

import itertools
from fractions import Fraction
from math import comb, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from motionsketch import (
    BasisKind,
    CapacityError,
    ConditioningError,
    DegenerateInputError,
    DomainError,
    basis_row,
    basis_row_log,
    chebyshev_nodes,
    collocation_matrix,
    solve_control_points,
)
from motionsketch.bernstein import (
    DIRECT_EVAL_MAX_DEGREE,
    MAX_DEGREE,
    _log_binomials,
    basis_matrix,
    bernstein_matrix_direct,
    bernstein_matrix_log,
    power_matrix,
)

# Exact rational values C(199, i) / 2^199, frozen from a Fraction computation.
EXACT_199_HALF = {
    0: 1.24460305557222834e-60,
    50: 4.23655142970245410e-13,
    99: 5.63484790092564219e-02,
    100: 5.63484790092564219e-02,
    199: 1.24460305557222834e-60,
}


def exact_bernstein_row(n: int, t: Fraction) -> list[Fraction]:
    """Independent oracle: exact rational Bernstein values."""
    return [comb(n, i) * t**i * (1 - t) ** (n - i) for i in range(n + 1)]


class TestBasisRow:
    def test_quadratic_at_half(self):
        assert_allclose(basis_row(BasisKind.BERNSTEIN, 2, 0.5).values, [0.25, 0.5, 0.25])

    def test_boundary_zero_is_exact(self):
        assert np.array_equal(
            basis_row(BasisKind.BERNSTEIN, 5, 0.0).values, [1, 0, 0, 0, 0, 0]
        )

    def test_boundary_one_is_exact(self):
        row = basis_row(BasisKind.BERNSTEIN, 5, 1.0).values
        assert np.array_equal(row, [0, 0, 0, 0, 0, 1])

    def test_power_row(self):
        assert_allclose(basis_row(BasisKind.POWER, 3, 0.5).values, [1, 0.5, 0.25, 0.125])

    def test_power_zero_convention(self):
        assert np.array_equal(basis_row(BasisKind.POWER, 3, 0.0).values, [1, 0, 0, 0])

    @pytest.mark.parametrize("t", [-0.1, 1.5, np.nan])
    def test_domain_error(self, t):
        with pytest.raises(DomainError):
            basis_row(BasisKind.BERNSTEIN, 3, t)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            basis_row(BasisKind.BERNSTEIN, 1025, 0.5)

    def test_negative_degree(self):
        with pytest.raises(DomainError):
            basis_row(BasisKind.BERNSTEIN, -1, 0.5)

    def test_row_metadata(self):
        row = basis_row(BasisKind.BERNSTEIN, 4, 0.25)
        assert row.degree == 4 and row.t == 0.25 and len(row.values) == 5


class TestBasisRowLog:
    def test_matches_direct_at_moderate_degree(self):
        direct = basis_row(BasisKind.BERNSTEIN, 10, 0.3).values
        logged = basis_row_log(10, 0.3).values
        assert_allclose(logged, direct, rtol=1e-10)

    def test_high_degree_against_exact_rationals(self):
        row = basis_row_log(199, 0.5).values
        assert np.all(np.isfinite(row))
        assert abs(row.sum() - 1.0) < 1e-6
        for i, expected in EXACT_199_HALF.items():
            assert row[i] == pytest.approx(expected, rel=1e-9)
        exact = exact_bernstein_row(199, Fraction(1, 2))
        assert_allclose(row, [float(v) for v in exact], rtol=1e-9)

    def test_boundary_at_high_degree(self):
        row = basis_row_log(400, 1.0).values
        assert np.array_equal(row[:-1], np.zeros(400)) and row[-1] == 1.0
        row0 = basis_row_log(400, 0.0).values
        assert row0[0] == 1.0 and not row0[1:].any()

    def test_finite_up_to_the_degree_cap(self):
        for t in (0.0, 1e-6, 0.5, 1 - 1e-6, 1.0):
            row = basis_row_log(1024, t).values
            assert np.all(np.isfinite(row))
            assert abs(row.sum() - 1.0) < 1e-6

    def test_float32_mode_stays_finite_and_close(self):
        # Up to the cap, through the ill-conditioned fits' degrees above 200:
        # every float32 entry stays within 1e-3 of the row's largest float64 one.
        for n, t in itertools.product((199, 200, 299, 599, 1024), np.linspace(0, 1, 21)):
            r64 = basis_row_log(n, float(t)).values
            r32 = basis_row_log(n, float(t), dtype=np.float32).values
            assert r32.dtype == np.float32
            assert np.all(np.isfinite(r32))
            assert abs(float(r32.sum()) - float(r64.sum())) < 1e-3
            assert np.abs(r32.astype(np.float64) - r64).max() <= 1e-3 * r64.max()


class TestBasisMatrix:
    @pytest.mark.parametrize(
        "kind, n", [(BasisKind.BERNSTEIN, 3), (BasisKind.BERNSTEIN, 61), (BasisKind.POWER, 3)]
    )
    @pytest.mark.parametrize("ts", [[np.nan], [0.5, np.nan], [-0.1, 0.5], [0.5, 1.5]])
    def test_domain_error(self, kind, n, ts):
        with pytest.raises(DomainError):
            basis_matrix(kind, n, np.array(ts))


class TestPowerMatrix:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 60, 199, 1024])
    def test_bit_equal_to_the_running_product(self, n):
        # Column i is column i-1 times t, multiplied in that order.
        t = np.concatenate([np.linspace(0.0, 1.0, 1001), [0.0, 1.0, 1e-300, 1.0 - 1e-16]])
        expected = np.ones((t.size, n + 1))
        for i in range(1, n + 1):
            expected[:, i] = expected[:, i - 1] * t
        rows = power_matrix(n, t)
        assert rows.shape == (t.size, n + 1)
        assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64))


class TestInvariants:
    def test_partition_of_unity(self):
        ts = np.linspace(0.0, 1.0, 101)
        for n in range(0, 201):
            sums = basis_matrix(BasisKind.BERNSTEIN, n, ts).sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) < 1e-9, f"degree {n}"

    def test_nonnegativity(self):
        ts = np.linspace(0.0, 1.0, 101)
        for n in (1, 7, 30, 60, 61, 150):
            assert basis_matrix(BasisKind.BERNSTEIN, n, ts).min() >= 0.0

    def test_symmetry(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 120))
            t = float(rng.random())
            fwd = basis_matrix(BasisKind.BERNSTEIN, n, np.array([t]))[0]
            rev = basis_matrix(BasisKind.BERNSTEIN, n, np.array([1.0 - t]))[0]
            assert_allclose(fwd, rev[::-1], rtol=1e-9, atol=1e-14)

    def test_log_direct_agreement_small_degrees(self, rng):
        for n in range(1, 31):
            t = float(rng.random())
            assert_allclose(
                basis_row_log(n, t).values,
                basis_row(BasisKind.BERNSTEIN, n, t).values,
                rtol=1e-8,
            )


# Degrees on both sides of the direct -> log switch, up to the cap, and
# parameters in [0, 1] with the boundaries and values that round to them in
# float32.
_DEGREES = st.one_of(
    st.integers(DIRECT_EVAL_MAX_DEGREE - 4, DIRECT_EVAL_MAX_DEGREE + 4),
    st.integers(0, MAX_DEGREE),
    st.just(MAX_DEGREE),
)
_PARAMS = st.lists(
    st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 1e-46, 1.0 - 1e-16, 1.0 - 1e-9]),
    ),
    min_size=1, max_size=8,
)


class TestBasisProperties:
    @settings(max_examples=150, deadline=None)
    @given(n=_DEGREES, ts=_PARAMS)
    def test_partition_of_unity_and_nonnegativity(self, n, ts):
        # Tolerances from the dtype: each log-route entry carries a relative
        # error of about |log value| * eps, at most ~1e3 * eps at the cap.
        rows = basis_matrix(BasisKind.BERNSTEIN, n, np.array(ts))
        assert rows.min() >= 0.0
        assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-9
        for t in ts:
            r32 = basis_row_log(n, t, dtype=np.float32).values
            assert r32.dtype == np.float32
            assert r32.min() >= 0.0
            assert abs(float(r32.astype(np.float64).sum()) - 1.0) < 1e-3

    @settings(max_examples=150, deadline=None)
    @given(n=_DEGREES, ts=_PARAMS, kind=st.sampled_from(list(BasisKind)))
    def test_matrix_rows_equal_row_functions(self, n, ts, kind):
        # basis_matrix routes by degree; each of its rows is bit-equal to the
        # single-row evaluator of the same route.
        rows = basis_matrix(kind, n, np.array(ts))
        for t, row in zip(ts, rows):
            if kind is BasisKind.POWER or n <= DIRECT_EVAL_MAX_DEGREE:
                expected = basis_row(kind, n, t).values
            else:
                expected = basis_row_log(n, t).values
            assert np.array_equal(row, expected)


# Bounds of the log route's roundoff, each at least twice the worst case
# measured with exact log-binomials and below the worst case of log-gamma
# binomials, which these tests exist to catch:
# - |direct - log| over degrees 0..60: measured 4.8e-15 (t = 2.8e-7 at degree
#   60, where the direct route's rounded 1 - t dominates); log-gamma reached
#   1.9e-14.
# - |row sum - 1| over degrees 61..1024, in units of n * eps: measured 0.44;
#   log-gamma reached 7.9.
_DIRECT_LOG_BOUND = 1.2e-14
# Per degree: rows of degree n may deviate from 1 by n times this.
_ROW_SUM_BOUND = 1.0 * np.finfo(np.float64).eps


def _row_sum_deviation(n: int, t: np.ndarray) -> float:
    return float(np.abs(bernstein_matrix_log(n, t).sum(axis=1) - 1.0).max())


class TestLogRouteExactness:
    @pytest.mark.parametrize("n", [61, 99, 199, 512, 1024])
    def test_log_binomials_are_logs_of_exact_binomials(self, n):
        expected = np.array([log(comb(n, k)) for k in range(n + 1)])
        got = _log_binomials(n)
        assert np.array_equal(got, expected)
        assert not got.flags.writeable

    def test_direct_and_log_rows_agree_on_a_dense_grid(self):
        t = np.linspace(0.0, 1.0, 1001)
        for n in range(DIRECT_EVAL_MAX_DEGREE + 1):
            err = np.abs(bernstein_matrix_direct(n, t) - bernstein_matrix_log(n, t)).max()
            assert err <= _DIRECT_LOG_BOUND, f"degree {n}: {err:.3e}"

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, DIRECT_EVAL_MAX_DEGREE), ts=_PARAMS)
    def test_direct_and_log_rows_agree(self, n, ts):
        t = np.array(ts)
        err = np.abs(bernstein_matrix_direct(n, t) - bernstein_matrix_log(n, t)).max()
        assert err <= _DIRECT_LOG_BOUND

    def test_row_sums_stay_within_n_eps_up_to_the_cap(self):
        t = np.linspace(0.0, 1.0, 101)
        for n in range(DIRECT_EVAL_MAX_DEGREE + 1, MAX_DEGREE + 1):
            dev = _row_sum_deviation(n, t)
            assert dev <= n * _ROW_SUM_BOUND, f"degree {n}: {dev / (n * _ROW_SUM_BOUND):.2f} n eps"

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(DIRECT_EVAL_MAX_DEGREE + 1, MAX_DEGREE), ts=_PARAMS)
    def test_row_sums_stay_within_n_eps(self, n, ts):
        assert _row_sum_deviation(n, np.array(ts)) <= n * _ROW_SUM_BOUND


class TestCollocation:
    def test_degree_one_endpoints_identity(self):
        assert np.array_equal(collocation_matrix(1, np.array([0.0, 1.0])), np.eye(2))

    def test_degree_two_rows(self):
        got = collocation_matrix(2, np.array([0.0, 0.5, 1.0]))
        assert_allclose(got, [[1, 0, 0], [0.25, 0.5, 0.25], [0, 0, 1]])

    def test_chebyshev_condition_small(self):
        matrix = collocation_matrix(3, chebyshev_nodes(3))
        s = np.linalg.svd(matrix, compute_uv=False)
        assert s[0] / s[-1] < 1e3

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DegenerateInputError):
            collocation_matrix(2, np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("nodes", [
        [0.0, 0.5, 0.5, 1.0], [1.0, 0.3, 1.0], [-0.0, 0.0, 1.0], [0.0, 1.0, -0.0],
        [np.nan, np.nan, 0.5], [0.5, np.nan, 0.2, np.nan], [np.nan, 0.2, 0.5], [0.7],
        [np.nan], [np.inf, np.inf, 0.0], [np.inf, -np.inf, 0.5], [0.0, 0.25, 0.5, 1.0],
        [2.0, 2.0, 0.0], [1.5, 0.0, 1.0],
    ])
    def test_repeats_raise_as_np_unique_finds_them(self, nodes):
        # Nodes repeat as np.unique (equal_nan) counts them: -0.0 equals 0.0,
        # and two NaNs repeat while one does not. A repeat is a
        # DegenerateInputError; otherwise a NaN, an infinite node or one
        # outside [0, 1] is the basis's DomainError.
        nodes = np.array(nodes)
        repeated = np.unique(nodes).size != nodes.size
        valid = bool(np.all((nodes >= 0.0) & (nodes <= 1.0)))
        if repeated or not valid:
            error = DegenerateInputError if repeated else DomainError
            with pytest.raises(error):
                collocation_matrix(nodes.size - 1, nodes)
        else:
            expected = basis_matrix(BasisKind.BERNSTEIN, nodes.size - 1, nodes)
            assert np.array_equal(collocation_matrix(nodes.size - 1, nodes), expected)

    def test_chebyshev_nodes_span(self):
        nodes = chebyshev_nodes(6)
        assert nodes[0] == 0.0 and nodes[-1] == pytest.approx(1.0)
        assert np.all(np.diff(nodes) > 0)


class TestSolveControlPoints:
    def test_linear_segment(self):
        samples = np.array([[0.0, 0.0], [10.0, 4.0]])
        recovered = solve_control_points(samples, np.array([0.0, 1.0]))
        assert_allclose(recovered, samples)

    def test_cubic_round_trip(self):
        control = np.array([[0.0, 0.0], [3.0, 8.0], [7.0, -2.0], [10.0, 5.0]])
        nodes = np.array([0.0, 1 / 3, 2 / 3, 1.0])
        samples = collocation_matrix(3, nodes) @ control
        assert_allclose(solve_control_points(samples, nodes), control, atol=1e-8)

    def test_random_round_trip_up_to_degree_ten(self, rng):
        for m in range(1, 11):
            control = rng.uniform(-50, 50, (m + 1, 2))
            nodes = chebyshev_nodes(m)
            samples = collocation_matrix(m, nodes) @ control
            assert_allclose(solve_control_points(samples, nodes), control, atol=1e-8)

    def test_duplicate_nodes_error(self):
        with pytest.raises(DegenerateInputError):
            solve_control_points(np.zeros((3, 2)), np.array([0.0, 0.0, 1.0]))

    def test_ill_conditioned_error(self):
        # Uniform nodes at degree 40 push the condition far beyond the ceiling.
        nodes = np.linspace(0.0, 1.0, 41)
        samples = np.zeros((41, 2))
        with pytest.raises(ConditioningError) as excinfo:
            solve_control_points(samples, nodes)
        assert excinfo.value.condition > 1e12
