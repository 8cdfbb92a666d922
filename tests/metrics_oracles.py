"""Reference implementations of the endmember scoring in unmixlab.metrics.

The assignment is searched over all E! orderings, the sums added left to
right, and the first ordering (in lexicographic order) with the least sum
kept. The two errors are the per-factor formulas: the angle of each matched
column pair taken on its own, and the RMSE over the permuted abundance rows.
The tests require unmixing_errors and match_endmembers to reproduce these
exactly; they use no code of unmixlab.metrics beyond spectral_angle.
"""

import itertools

import numpy as np

from unmixlab.metrics import spectral_angle


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
