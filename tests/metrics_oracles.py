"""Reference implementations of the MSE loss, the reconstruction angles
and the endmember scoring in unmixlab.metrics.

mse_loss_reference and lenient_angles_reference are the slow paths that
the one-pass mse_loss and the precomputed-norm lenient_angles replaced:
every residual, square and doubled gradient a fresh array, and every
angle block's norms, mask and F-ordered einsum operands made on their own.

The assignment is searched over all E! orderings, the sums added left to
right, and the first ordering (in lexicographic order) with the least sum
kept. The two errors are the per-factor formulas: the angle of each matched
column pair taken on its own, and the RMSE over the permuted abundance rows.
The tests require unmixlab.metrics to reproduce all of these exactly; they
use no code of unmixlab.metrics beyond spectral_angle.
"""

import itertools

import numpy as np

from unmixlab.metrics import spectral_angle


def mse_loss_reference(x, x_hat):
    """(value, gradient) of the mean squared error: per member of a stack,
    np.mean of the squared residual, and 2 * residual / (bands * batch)."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    diff = x_hat - x
    values = np.array([np.mean(d * d) for d in diff.reshape(-1, *diff.shape[-2:])])
    diff *= 2.0
    diff /= diff.shape[-2] * diff.shape[-1]
    return (float(values[0]) if x.ndim == 2 else values), diff


def lenient_angles_reference(x, x_hat, block=1024):
    """Angle of each column pair in blocks of block columns, pi/2 where a
    side has zero norm, each block's operands picked by boolean indexing."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    angles = np.full(x.shape[1], np.pi / 2.0)
    for start in range(0, x.shape[1], block):
        cols = slice(start, start + block)
        xb, hb = x[:, cols], x_hat[:, cols]
        nx = np.linalg.norm(xb, axis=0)
        nh = np.linalg.norm(hb, axis=0)
        ok = (nx > 0) & (nh > 0)
        if np.any(ok):
            cos = np.einsum("ij,ij->j", xb[:, ok], hb[:, ok]) / (nx[ok] * nh[ok])
            angles[cols][ok] = np.arccos(np.clip(cos, -1.0, 1.0))
    return angles


def brute_force_match(cost):
    """The permutation p with the least cost[p[0], 0] + cost[p[1], 1] + ...;
    ties keep the lexicographically smallest p."""
    cost = np.asarray(cost, dtype=np.float64)
    n = cost.shape[0]
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[perm[j], j] for j in range(n))
        if total < best_cost:
            best, best_cost = perm, total
    return best


def rmse_abundances(a_ref, a_hat, perm):
    """Root mean squared error over all E*M entries after permuting a_hat rows."""
    diff = np.asarray(a_ref, dtype=np.float64) - np.asarray(a_hat, dtype=np.float64)[list(perm), :]
    return float(np.sqrt(np.mean(diff * diff)))


def sad_endmembers(w_ref, w_hat, perm):
    """Mean spectral angle between reference columns and permuted estimates."""
    angles = [spectral_angle(w_hat[:, perm[j]], w_ref[:, j]) for j in range(w_ref.shape[1])]
    return float(np.mean(angles))
