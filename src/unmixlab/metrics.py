"""Training losses with gradients, and unmixing quality metrics.

Losses return (value, gradient wrt the reconstruction) so the network
backward pass can be driven directly; the value has shape x.shape[:-2],
one loss per stack member (0-d for a bands x batch pair). Quality
metrics compare estimated endmembers/abundances against a reference
after finding the best column permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

NDArrayF = npt.NDArray[np.float64]

COS_CLAMP = 1.0 - 1e-7
# columns per block of lenient_angles: its temporaries are bands x 1024,
# not bands x pixels
ANGLE_BLOCK_COLUMNS = 1024


class DegenerateSpectrumError(ValueError):
    """A spectrum with zero norm has no direction, so no spectral angle."""


def mse_loss(
    x: np.ndarray, x_hat: np.ndarray, out: np.ndarray | None = None
) -> tuple[NDArrayF, NDArrayF]:
    """Mean squared error over all entries and its gradient wrt x_hat.

    On a stack of (members x bands x batch) arrays the value holds each
    member's loss, each with the bits of that member's 2-D call.

    The residual x_hat - x is formed in out (x_hat itself may be passed,
    as a training step passes its reconstruction) and then turned into the
    gradient in place, so the call allocates one member's squares and
    nothing as large as the inputs; without out it is a new array. The
    value has the bits of np.mean((x_hat - x) ** 2) per member when out is
    laid out as numpy lays out x_hat - x (any C-ordered out, such as a
    reconstruction, is). The gradient is residual / (n / 2) with n =
    bands x batch: the bits of 2 * residual / n wherever 2 * residual is
    finite. Where |x_hat - x| > DBL_MAX / 2 it is finite where 2 * residual
    / n is infinite; the loss is infinite there either way.
    """
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    diff = np.subtract(x_hat, x, out=out)
    n = diff.shape[-2] * diff.shape[-1]
    # each member's squares on their own, in one member-sized scratch laid
    # out as d * d would be, so the sum adds them in np.mean's order
    members = diff.reshape(-1, *diff.shape[-2:])
    square = np.empty_like(members[0])
    values = np.empty(len(members))
    for r, d in enumerate(members):
        values[r] = np.add.reduce(np.multiply(d, d, out=square), axis=None) / n
    diff /= n / 2
    return values.reshape(x.shape[:-2]), diff


def sad_loss(
    x: np.ndarray, x_hat: np.ndarray, out: np.ndarray | None = None
) -> tuple[NDArrayF, NDArrayF]:
    """Mean spectral angle between matching columns and its gradient wrt x_hat.

    The cosine is clamped to +/-(1 - 1e-7) before arccos; the gradient is
    zero for columns in the clamped region. A column of zero norm has no
    angle, so a pair that holds one, a 2-D call's or a stack member's, gets
    a NaN loss (and a gradient that is not finite). The gradient is written
    into out (x_hat itself may be passed; it is read before it is written),
    or a new array without it; its bits are the same either way.
    """
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    nx = np.linalg.norm(x, axis=-2)
    nh = np.linalg.norm(x_hat, axis=-2)
    degenerate = ((nx == 0) | (nh == 0)).any(axis=-1)
    dots = np.einsum("...ij,...ij->...j", x, x_hat)
    cos = dots / (nx * nh)
    clamped = np.abs(cos) >= COS_CLAMP
    cos_c = np.clip(cos, -COS_CLAMP, COS_CLAMP)
    angles = np.arccos(cos_c)
    n_cols = x.shape[-1]
    value = np.where(degenerate, np.nan, np.mean(angles, axis=-1))

    # d angle / d cos = -1 / sqrt(1 - cos^2); d cos / d x_hat per column:
    # x / (|x||x_hat|) - cos * x_hat / |x_hat|^2. A trailing [..., None, :]
    # puts a per-column factor against every band of its column.
    dacos = -1.0 / np.sqrt(1.0 - cos_c * cos_c)
    toward = np.multiply(cos[..., None, :], x_hat, out=out)
    toward /= (nh * nh)[..., None, :]
    dcos = np.subtract(x / (nx * nh)[..., None, :], toward, out=out)
    grad = np.multiply((dacos / n_cols)[..., None, :], dcos, out=dcos)
    np.copyto(grad, 0.0, where=clamped[..., None, :])
    return value, grad


def spectral_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in radians between two spectra (scale invariant). A spectrum
    whose norm is zero, or overflows, has no angle."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if not (0.0 < nu < math.inf and 0.0 < nv < math.inf):
        raise DegenerateSpectrumError("spectrum norm is zero or not finite")
    c = float(np.dot(u, v) / (nu * nv))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def column_norms(x: np.ndarray) -> NDArrayF:
    """The Euclidean norm of each column of x, ANGLE_BLOCK_COLUMNS columns
    at a time: the norms lenient_angles computes, with no temporary as
    large as x."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.empty(x.shape[1])
    for start in range(0, x.shape[1], ANGLE_BLOCK_COLUMNS):
        cols = slice(start, start + ANGLE_BLOCK_COLUMNS)
        norms[cols] = np.linalg.norm(x[:, cols], axis=0)
    return norms


def lenient_angles(
    x: np.ndarray, x_hat: np.ndarray, x_norms: np.ndarray | None = None
) -> NDArrayF:
    """Angle between each pair of matching columns; a column with a
    zero-norm side gets pi/2. x_norms, if given, is column_norms(x), which
    a caller scoring many reconstructions of one x computes once.

    The columns are taken ANGLE_BLOCK_COLUMNS at a time, so no temporary is
    as large as the inputs, and two block-sized buffers serve every block.
    Each column's norm and dot product depend on that column alone (the
    squares keep the block's layout, so their axis-0 sum adds each column's
    rows as np.linalg.norm adds them; einsum reads each F-ordered column on
    its own), so every angle has the bits of the same formula over the whole
    matrix.
    """
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    x_norms = column_norms(x) if x_norms is None else np.asarray(x_norms, dtype=np.float64)
    if x_norms.shape != x.shape[1:]:
        raise ValueError(f"x_norms must hold {x.shape[1]} norms, not {x_norms.shape}")
    angles = np.full(x.shape[1], np.pi / 2.0)
    # two block-sized buffers that every block reuses, so that no block
    # allocates (and faults in) temporaries of its own. The first holds
    # x_hat's squares, laid out as x_hat's block is, so that the axis-0 sum
    # adds what np.linalg.norm adds; once the norms are taken, the two hold
    # the F-ordered einsum operands.
    size = x.shape[0] * min(x.shape[1], ANGLE_BLOCK_COLUMNS)
    x_ops, h_ops = np.empty(size), np.empty(size)
    order = "F" if x_hat.strides[0] < x_hat.strides[1] else "C"
    for start in range(0, x.shape[1], ANGLE_BLOCK_COLUMNS):
        cols = slice(start, start + ANGLE_BLOCK_COLUMNS)
        xb, hb = x[:, cols], x_hat[:, cols]
        nx = x_norms[cols]
        sq = np.multiply(hb, hb, out=x_ops[:hb.size].reshape(hb.shape, order=order))
        nh = np.sqrt(np.add.reduce(sq, axis=0))
        ok = (nx > 0) & (nh > 0)
        # einsum gets F-ordered operands: the buffers when every column
        # counts, else the copies boolean column indexing makes
        if ok.all():
            xf = x_ops[:xb.size].reshape(xb.shape, order="F")
            hf = h_ops[:hb.size].reshape(hb.shape, order="F")
            np.copyto(xf, xb)
            np.copyto(hf, hb)
            dots = np.einsum("ij,ij->j", xf, hf)
            angles[cols] = np.arccos(np.clip(dots / (nx * nh), -1.0, 1.0))
        elif ok.any():
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


def angle_matrix(w_hat: np.ndarray, w_ref: np.ndarray) -> NDArrayF:
    """E x E cost whose entry (i, j) is the spectral angle between estimate
    column w_hat[:, i] and reference column w_ref[:, j]."""
    w_hat = np.asarray(w_hat, dtype=np.float64)
    w_ref = np.asarray(w_ref, dtype=np.float64)
    if w_hat.shape != w_ref.shape:
        raise ValueError(f"shape mismatch: {w_hat.shape} vs {w_ref.shape}")
    n = w_hat.shape[1]
    cost = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            cost[i, j] = spectral_angle(w_hat[:, i], w_ref[:, j])
    return cost


def _least_sum(cols: list[list[float]], rows: list[int], start: float, pos: int) -> float:
    """Least left-to-right sum start + cols[pos][r0] + cols[pos + 1][r1] + ...
    over all orderings (r0, r1, ...) of rows, by dynamic programming over
    the subsets of rows placed first. Rounding is monotone, so the least
    prefix sum of each subset is the only one that can lead to the least
    total."""
    best = [start] * (1 << len(rows))
    for mask in range(1, len(best)):
        col = cols[pos + mask.bit_count() - 1]
        least = math.inf
        for b, r in enumerate(rows):
            if mask >> b & 1:
                total = best[mask ^ (1 << b)] + col[r]
                if total < least:
                    least = total
        best[mask] = least
    return best[-1]


def match_endmembers(cost: np.ndarray) -> Permutation:
    """Best assignment of estimated endmember columns to reference columns.

    cost is an angle_matrix. Returns the permutation p minimizing the sum
    cost[p[0], 0] + cost[p[1], 1] + ..., added left to right; of several
    permutations with that least sum, the lexicographically smallest. This
    is exactly what a search over all E! orderings returns, found in
    O(E^2 2^E): each position takes the smallest free row whose least
    completion still reaches the least sum.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost must be a square matrix, not {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost entries must be finite")
    cols = cost.T.tolist()
    free = list(range(cost.shape[0]))
    target = _least_sum(cols, free, 0.0, 0)
    perm: list[int] = []
    total = 0.0
    for pos in range(len(free)):
        for i in free:
            rest = [r for r in free if r != i]
            reached = total + cols[pos][i]
            if _least_sum(cols, rest, reached, pos + 1) == target:
                break
        perm.append(i)
        free, total = rest, reached
    return tuple(perm)


def unmixing_errors(
    w_ref: np.ndarray,
    a_ref: np.ndarray,
    w_hat: np.ndarray,
    a_hat: np.ndarray,
) -> tuple[float, float, Permutation]:
    """Match estimated endmembers to the reference and score both factors.

    Returns (abundance_rmse, endmember_sad, perm): the root mean squared
    error over all E*M abundance entries after putting row perm[j] of a_hat
    against row j of a_ref, and the mean of the matched entries of the
    angle matrix.
    """
    cost = angle_matrix(w_hat, w_ref)
    perm = match_endmembers(cost)
    rows = list(perm)
    a_ref = np.asarray(a_ref, dtype=np.float64)
    a_hat = np.asarray(a_hat, dtype=np.float64)
    if a_ref.shape != a_hat.shape or a_ref.shape[0] != len(rows):
        raise ValueError(f"abundance shapes {a_ref.shape} and {a_hat.shape} "
                         f"do not hold {len(rows)} endmembers")
    diff = a_ref - a_hat[rows, :]
    abundance_rmse = float(np.sqrt(np.mean(diff * diff)))
    endmember_sad = float(np.mean(cost[rows, range(len(rows))]))
    return abundance_rmse, endmember_sad, perm


@dataclass(frozen=True)
class ErrorSummary:
    """Grid-level mean and sample standard deviation of both error kinds."""

    abundance_mean: float
    abundance_std: float
    endmember_mean: float
    endmember_std: float
    count: int


def summarize_errors(ab_arr: NDArrayF, em_arr: NDArrayF) -> ErrorSummary:
    """Mean and sample std of abundance/endmember errors over run records,
    given as two columns: the stats.metric_column scores of their
    abundance_rmse and of their endmember_sad.

    A record counts only where both are finite, so diverged, unscored and
    NaN-scored runs are skipped as stats.group_by_init skips them; at least
    one scored record is required.
    """
    scored = np.isfinite(ab_arr) & np.isfinite(em_arr)
    if not scored.any():
        raise ValueError("no scored records to aggregate")
    ab_arr, em_arr = ab_arr[scored], em_arr[scored]
    count = int(scored.sum())
    std_a = float(np.std(ab_arr, ddof=1)) if count > 1 else 0.0
    std_e = float(np.std(em_arr, ddof=1)) if count > 1 else 0.0
    return ErrorSummary(
        abundance_mean=float(ab_arr.mean()),
        abundance_std=std_a,
        endmember_mean=float(em_arr.mean()),
        endmember_std=std_e,
        count=count,
    )


def format_mean_std(mean: float, std: float) -> str:
    """Compact mean-and-spread rendering used in summary tables."""
    return f"{mean:.2f}±{std:.1f}"
