"""Training losses with gradients, and unmixing quality metrics.

Losses return (value, gradient wrt the reconstruction) so the network
backward pass can be driven directly. Quality metrics compare estimated
endmembers/abundances against a reference after finding the best column
permutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import numpy.typing as npt

NDArrayF = npt.NDArray[np.float64]

COS_CLAMP = 1.0 - 1e-7
MAX_EXHAUSTIVE_ENDMEMBERS = 10
# columns per block of lenient_angles: its temporaries are bands x 1024,
# not bands x pixels
ANGLE_BLOCK_COLUMNS = 1024


class DegenerateSpectrumError(ValueError):
    """A spectrum with zero norm has no direction, so no spectral angle."""


def mse_loss(x: np.ndarray, x_hat: np.ndarray) -> tuple[float, NDArrayF]:
    """Mean squared error over all entries and its gradient wrt x_hat."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    diff = x_hat - x
    value = float(np.mean(diff * diff))
    # the gradient 2.0 * diff / diff.size, formed in diff's own memory
    diff *= 2.0
    diff /= diff.size
    return value, diff


def sad_loss(x: np.ndarray, x_hat: np.ndarray) -> tuple[float, NDArrayF]:
    """Mean spectral angle between matching columns and its gradient wrt x_hat.

    The cosine is clamped to +/-(1 - 1e-7) before arccos; the gradient is
    zero for columns in the clamped region. Columns of zero norm are
    rejected because their angle is undefined.
    """
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    nx = np.linalg.norm(x, axis=0)
    nh = np.linalg.norm(x_hat, axis=0)
    if np.any(nx == 0) or np.any(nh == 0):
        raise DegenerateSpectrumError("zero-norm column in spectral angle loss")
    dots = np.einsum("ij,ij->j", x, x_hat)
    cos = dots / (nx * nh)
    clamped = np.abs(cos) >= COS_CLAMP
    cos_c = np.clip(cos, -COS_CLAMP, COS_CLAMP)
    angles = np.arccos(cos_c)
    n_cols = x.shape[1]
    value = float(np.mean(angles))

    # d angle / d cos = -1 / sqrt(1 - cos^2); d cos / d x_hat per column:
    # x / (|x||x_hat|) - cos * x_hat / |x_hat|^2.
    dacos = -1.0 / np.sqrt(1.0 - cos_c * cos_c)
    dcos = x / (nx * nh) - cos * x_hat / (nh * nh)
    grad = (dacos / n_cols) * dcos
    grad[:, clamped] = 0.0
    return value, grad


def spectral_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in radians between two spectra (scale invariant)."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise DegenerateSpectrumError("zero-norm spectrum")
    c = float(np.dot(u, v) / (nu * nv))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def lenient_angles(x: np.ndarray, x_hat: np.ndarray) -> NDArrayF:
    """Angle between each pair of matching columns; a column with a
    zero-norm side gets pi/2.

    The columns are taken ANGLE_BLOCK_COLUMNS at a time, so no temporary is
    as large as the inputs. Each column's norm and dot product depend on
    that column alone (an axis-0 norm of a C-ordered block adds its rows in
    order per column; einsum reads each F-ordered column on its own), so
    every angle has the bits of the same formula over the whole matrix.
    """
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    angles = np.full(x.shape[1], np.pi / 2.0)
    for start in range(0, x.shape[1], ANGLE_BLOCK_COLUMNS):
        cols = slice(start, start + ANGLE_BLOCK_COLUMNS)
        xb, hb = x[:, cols], x_hat[:, cols]
        nx = np.linalg.norm(xb, axis=0)
        nh = np.linalg.norm(hb, axis=0)
        ok = (nx > 0) & (nh > 0)
        if np.any(ok):
            # boolean column indexing makes the F-ordered operands
            cos = np.einsum("ij,ij->j", xb[:, ok], hb[:, ok]) / (nx[ok] * nh[ok])
            angles[cols][ok] = np.arccos(np.clip(cos, -1.0, 1.0))
    return angles


def rmse_overwriting(x: np.ndarray, x_hat: np.ndarray) -> float:
    """sqrt(mean((x - x_hat) ** 2)), computed in x_hat's own memory, which
    it overwrites; x_hat must be a writable float64 array of x's shape.

    The bits are those of the formula when x_hat is C-ordered, as a network
    reconstruction is: x - x_hat is then C-ordered as well, so the mean adds
    the squares in the same order.
    """
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    np.subtract(x, x_hat, out=x_hat)
    np.square(x_hat, out=x_hat)
    return float(np.sqrt(np.mean(x_hat)))


Permutation = tuple[int, ...]


def _check_permutation(perm: Sequence[int], n: int) -> Permutation:
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    return perm


def match_endmembers(w_hat: np.ndarray, w_ref: np.ndarray) -> Permutation:
    """Best assignment of estimated endmember columns to reference columns.

    Returns the permutation p minimizing the summed spectral angle between
    w_hat[:, p[j]] and w_ref[:, j], searched exhaustively over all E!
    orderings (E <= 10). Ties keep the lexicographically smallest p.
    """
    w_hat = np.asarray(w_hat, dtype=np.float64)
    w_ref = np.asarray(w_ref, dtype=np.float64)
    if w_hat.shape != w_ref.shape:
        raise ValueError(f"shape mismatch: {w_hat.shape} vs {w_ref.shape}")
    n = w_hat.shape[1]
    if n > MAX_EXHAUSTIVE_ENDMEMBERS:
        raise ValueError(f"exhaustive matching limited to {MAX_EXHAUSTIVE_ENDMEMBERS}")
    cost = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            cost[i, j] = spectral_angle(w_hat[:, i], w_ref[:, j])
    best: Permutation | None = None
    best_cost = np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[perm[j], j] for j in range(n))
        if total < best_cost:
            best_cost = total
            best = perm
    assert best is not None
    return best


def rmse_abundances(
    a_ref: np.ndarray, a_hat: np.ndarray, perm: Sequence[int]
) -> float:
    """Root mean squared error over all E*M entries after permuting a_hat rows."""
    a_ref = np.asarray(a_ref, dtype=np.float64)
    a_hat = np.asarray(a_hat, dtype=np.float64)
    if a_ref.shape != a_hat.shape:
        raise ValueError(f"shape mismatch: {a_ref.shape} vs {a_hat.shape}")
    perm = _check_permutation(perm, a_ref.shape[0])
    diff = a_ref - a_hat[list(perm), :]
    return float(np.sqrt(np.mean(diff * diff)))


def per_endmember_rmse(
    a_ref: np.ndarray, a_hat: np.ndarray, perm: Sequence[int]
) -> NDArrayF:
    """Per-row RMSE after permutation, for diagnostics."""
    a_ref = np.asarray(a_ref, dtype=np.float64)
    a_hat = np.asarray(a_hat, dtype=np.float64)
    perm = _check_permutation(perm, a_ref.shape[0])
    diff = a_ref - a_hat[list(perm), :]
    return np.sqrt(np.mean(diff * diff, axis=1))


def sad_endmembers(
    w_ref: np.ndarray, w_hat: np.ndarray, perm: Sequence[int]
) -> float:
    """Mean spectral angle between reference columns and permuted estimates."""
    w_ref = np.asarray(w_ref, dtype=np.float64)
    w_hat = np.asarray(w_hat, dtype=np.float64)
    if w_ref.shape != w_hat.shape:
        raise ValueError(f"shape mismatch: {w_ref.shape} vs {w_hat.shape}")
    perm = _check_permutation(perm, w_ref.shape[1])
    angles = [
        spectral_angle(w_hat[:, perm[j]], w_ref[:, j]) for j in range(w_ref.shape[1])
    ]
    return float(np.mean(angles))


@dataclass(frozen=True)
class ErrorPair:
    """Abundance RMSE and endmember angle error for one trained model."""

    abundance_rmse: float
    endmember_sad: float

    def __post_init__(self):
        if not np.isfinite(self.abundance_rmse) or self.abundance_rmse < 0:
            raise ValueError("abundance_rmse must be finite and >= 0")
        if not 0.0 <= self.endmember_sad <= np.pi:
            raise ValueError("endmember_sad must lie in [0, pi]")


def unmixing_errors(
    w_ref: np.ndarray,
    a_ref: np.ndarray,
    w_hat: np.ndarray,
    a_hat: np.ndarray,
) -> tuple[ErrorPair, Permutation]:
    """Match estimated endmembers to the reference and score both factors."""
    perm = match_endmembers(w_hat, w_ref)
    pair = ErrorPair(
        abundance_rmse=rmse_abundances(a_ref, a_hat, perm),
        endmember_sad=sad_endmembers(w_ref, w_hat, perm),
    )
    return pair, perm


@dataclass(frozen=True)
class ErrorSummary:
    """Grid-level mean and sample standard deviation of both error kinds."""

    abundance_mean: float
    abundance_std: float
    endmember_mean: float
    endmember_std: float
    count: int


def aggregate_errors(records: Iterable) -> ErrorSummary:
    """Mean and sample std of abundance/endmember errors over run records.

    Accepts any objects exposing abundance_rmse and endmember_sad attributes.
    Records flagged as diverged (or with missing errors) are skipped; at
    least one scored record is required.
    """
    ab, em = [], []
    for rec in records:
        if getattr(rec, "diverged", False):
            continue
        a = getattr(rec, "abundance_rmse")
        e = getattr(rec, "endmember_sad")
        if a is None or e is None:
            continue
        ab.append(float(a))
        em.append(float(e))
    if not ab:
        raise ValueError("no scored records to aggregate")
    ab_arr = np.asarray(ab)
    em_arr = np.asarray(em)
    std_a = float(np.std(ab_arr, ddof=1)) if len(ab) > 1 else 0.0
    std_e = float(np.std(em_arr, ddof=1)) if len(em) > 1 else 0.0
    return ErrorSummary(
        abundance_mean=float(ab_arr.mean()),
        abundance_std=std_a,
        endmember_mean=float(em_arr.mean()),
        endmember_std=std_e,
        count=len(ab),
    )


def format_mean_std(mean: float, std: float) -> str:
    """Compact mean-and-spread rendering used in summary tables."""
    return f"{mean:.2f}±{std:.1f}"
