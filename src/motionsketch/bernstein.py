"""Bernstein and power polynomial bases, including a log-space route for high degrees.

Direct Bernstein evaluation uses the triangular (de Casteljau style) recurrence,
which never forms binomial coefficients and reproduces the boundary rows exactly.
Explicit binomials overflow float64 around degree 1029 and lose accuracy long
before that, so high-degree rows are computed in log space instead: each entry is

    exp(log C(n, i) + i * log t + (n - i) * log(1 - t))

The log-binomials are logs of exact binomials: those are built as Python
integers by the recurrence C(n, i+1) = C(n, i) * (n - i) // (i + 1), and
`math.log` of each is taken once per degree and cached. The entries of a
Bernstein row are bounded by 1, so converting back from logs is safe even when
the three summands individually reach +-1e3. The route needs only numpy and
the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import CapacityError, ConditioningError, DegenerateInputError, DomainError

# Hard cap on polynomial degree accepted by the evaluators.
MAX_DEGREE = 1024

# Above this degree the Bernstein evaluators switch from the O(n^2) recurrence
# to the O(n) log-space formula. The recurrence is exact at the boundaries and
# slightly more accurate, so it is preferred while affordable.
DIRECT_EVAL_MAX_DEGREE = 60

# Condition-number ceiling for collocation solves.
MAX_SOLVE_CONDITION = 1e12


class BasisKind(Enum):
    """Polynomial basis used for trajectories: Bernstein B_{n,i}(t) or powers t^i."""

    BERNSTEIN = "bernstein"
    POWER = "power"


@dataclass(frozen=True)
class BasisRow:
    """All n+1 basis values of one polynomial basis at a single parameter."""

    kind: BasisKind
    degree: int
    t: float
    values: np.ndarray


def _check_degree(n: int) -> None:
    if n < 0:
        raise DomainError(f"degree must be nonnegative, got {n}")
    if n > MAX_DEGREE:
        raise CapacityError(f"degree {n} exceeds the configured maximum {MAX_DEGREE}")


def _check_unit(t: float, name: str = "t") -> None:
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"{name} must lie in [0, 1], got {t!r}")


def bernstein_matrix_direct(n: int, t: np.ndarray) -> np.ndarray:
    """Rows of Bernstein values B_{n,0..n} at each parameter in `t`, by recurrence.

    Stable and boundary-exact, cost O(n^2) per row. `t` is a 1-D array.
    """
    t = np.asarray(t, dtype=np.float64)
    rows = np.zeros((t.size, n + 1))
    rows[:, 0] = 1.0
    one_minus = 1.0 - t
    for j in range(1, n + 1):
        rows[:, 1 : j + 1] = one_minus[:, None] * rows[:, 1 : j + 1] + t[:, None] * rows[:, 0:j]
        rows[:, 0] *= one_minus
    return rows


# Unbounded, but callers stay within MAX_DEGREE: at most 1025 arrays, 4.2 MB.
@lru_cache(maxsize=None)
def _log_binomials(n: int) -> np.ndarray:
    """log C(n, i) for i = 0..n as a read-only float64 array.

    Each binomial is an exact integer from the multiplicative recurrence (the
    division is exact), so every entry is `math.log` of the true value.
    """
    logs = np.empty(n + 1)
    binom = 1
    for i in range(n + 1):
        logs[i] = math.log(binom)
        binom = binom * (n - i) // (i + 1)
    logs.flags.writeable = False
    return logs


def bernstein_matrix_log(n: int, t: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Rows of Bernstein values at each parameter in `t`, via exact log-binomials.

    Boundary parameters (t exactly 0 or 1) are emitted exactly without taking
    any logarithm. `dtype` may be float32 to mirror 32-bit arithmetic: the
    exact log-binomials are then rounded to float32 once, every log, product
    and exp that depends on `t` is computed in float32, and a parameter that
    rounds to 0 or 1 in float32 is a boundary parameter.
    """
    t = np.asarray(t).astype(dtype, copy=False)
    out = np.zeros((t.size, n + 1), dtype=dtype)
    i = np.arange(n + 1, dtype=dtype)
    log_binom = _log_binomials(n).astype(dtype, copy=False)

    at_zero = t == 0.0
    at_one = t == 1.0
    interior = ~(at_zero | at_one)
    out[at_zero, 0] = 1.0
    out[at_one, n] = 1.0
    if np.any(interior):
        ti = t[interior][:, None]
        logs = log_binom[None, :] + i[None, :] * np.log(ti) + (n - i)[None, :] * np.log1p(-ti)
        out[interior, :] = np.exp(logs)
    return out


def power_matrix(n: int, t: np.ndarray) -> np.ndarray:
    """Rows [1, t, t^2, ..., t^n] at each parameter in `t` (0^0 taken as 1)."""
    t = np.asarray(t, dtype=np.float64)
    rows = np.ones((t.size, n + 1))
    for i in range(1, n + 1):
        rows[:, i] = rows[:, i - 1] * t
    return rows


def basis_matrix(kind: BasisKind, n: int, t: np.ndarray) -> np.ndarray:
    """Basis rows at many parameters, routing Bernstein by degree.

    Bernstein rows use the direct recurrence up to ``DIRECT_EVAL_MAX_DEGREE``
    and the log-space formula beyond it. Every parameter must lie in [0, 1];
    NaN is rejected.
    """
    _check_degree(n)
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if t.size and not (t.min() >= 0.0 and t.max() <= 1.0):
        raise DomainError("all parameters must lie in [0, 1]")
    if kind is BasisKind.POWER:
        return power_matrix(n, t)
    if n <= DIRECT_EVAL_MAX_DEGREE:
        return bernstein_matrix_direct(n, t)
    return bernstein_matrix_log(n, t)


def basis_row(kind: BasisKind, n: int, t: float) -> BasisRow:
    """Direct (non-log) evaluation of one basis row.

    Bernstein values come from the triangular recurrence, so t=0 and t=1
    produce exact unit rows and no binomial coefficient is ever formed.
    """
    _check_degree(n)
    _check_unit(t)
    if kind is BasisKind.BERNSTEIN:
        values = bernstein_matrix_direct(n, np.array([t]))[0]
    else:
        values = power_matrix(n, np.array([t]))[0]
    return BasisRow(kind=kind, degree=n, t=float(t), values=values)


def basis_row_log(n: int, t: float, dtype=np.float64) -> BasisRow:
    """Log-space evaluation of a Bernstein row; finite for any degree up to the cap.

    The log-binomials are exact in float64. With ``dtype=np.float32`` they are
    rounded to single precision once, and every intermediate that depends on
    `t` (logs, products, exp) is carried in single precision.
    """
    _check_degree(n)
    _check_unit(t)
    values = bernstein_matrix_log(n, np.array([t], dtype=np.float64), dtype=dtype)[0]
    return BasisRow(kind=BasisKind.BERNSTEIN, degree=n, t=float(t), values=values)


def chebyshev_nodes(m: int) -> np.ndarray:
    """m+1 Chebyshev-Lobatto points mapped to [0, 1], endpoints included.

    The default node family for collocation: it keeps the Bernstein
    collocation matrix invertible with a modest condition number.
    """
    if m < 1:
        raise DomainError(f"need at least two nodes, got degree {m}")
    k = np.arange(m + 1)
    return 0.5 * (1.0 - np.cos(np.pi * k / m))


def collocation_matrix(m: int, nodes: np.ndarray) -> np.ndarray:
    """(m+1)x(m+1) matrix with entry (k, i) = B_{m,i}(nodes[k])."""
    _check_degree(m)
    nodes = np.asarray(nodes, dtype=np.float64)
    if nodes.shape != (m + 1,):
        raise DomainError(f"expected {m + 1} nodes, got shape {nodes.shape}")
    if np.unique(nodes).size != nodes.size:
        raise DegenerateInputError("collocation nodes must be pairwise distinct")
    return basis_matrix(BasisKind.BERNSTEIN, m, nodes)


def solve_control_points(curve_samples: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Recover Bezier control points from points on the curve at the given nodes.

    Solves the collocation system M @ P = C. Raises ConditioningError when the
    matrix condition exceeds ``MAX_SOLVE_CONDITION``.
    """
    curve_samples = np.asarray(curve_samples, dtype=np.float64)
    nodes = np.asarray(nodes, dtype=np.float64)
    m = nodes.size - 1
    if curve_samples.shape[0] != m + 1:
        raise DomainError(
            f"need one curve sample per node: {curve_samples.shape[0]} samples, {m + 1} nodes"
        )
    matrix = collocation_matrix(m, nodes)
    condition = np.linalg.cond(matrix)
    if not np.isfinite(condition) or condition > MAX_SOLVE_CONDITION:
        raise ConditioningError(
            f"collocation matrix condition {condition:.3e} exceeds {MAX_SOLVE_CONDITION:.0e}",
            condition=float(condition),
        )
    return np.linalg.solve(matrix, curve_samples)
