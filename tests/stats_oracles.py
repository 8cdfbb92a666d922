"""Scalar reference implementations of the array kernels in unmixlab.stats.

Each function is the straightforward one-element-at-a-time form: the Lentz
continued fraction run per call, the Kruskal-Wallis statistic re-ranked on
every resample, and the Conover-Iman matrix filled pair by pair with a
step-down Holm loop. The tests require the library to reproduce these bit
for bit, so they use no code of unmixlab.stats beyond midranks.
"""

import math

import numpy as np

from unmixlab.stats import midranks

_EPS = 1e-16
_FPMIN = 1e-300
_ITMAX = 1000


def beta_cf(a, b, x):
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delt = d * c
        h *= delt
        if abs(delt - 1.0) < _EPS:
            break
    return h


def regularized_beta(a, b, x):
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * beta_cf(a, b, x) / a
    return 1.0 - bt * beta_cf(b, a, 1.0 - x) / b


def t_sf(x, df):
    if x == 0.0:
        return 0.5
    if math.isinf(x):
        return 0.0 if x > 0 else 1.0
    tail = 0.5 * regularized_beta(df / 2.0, 0.5, df / (df + x * x))
    return tail if x > 0 else 1.0 - tail


def f_sf(x, d1, d2):
    if math.isinf(x):
        return 0.0
    return regularized_beta(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x))


def kw_statistic(values, sizes):
    """Tie-corrected H with per-group slice sums added left to right."""
    n = values.size
    ranks = midranks(values)
    h_raw = 0.0
    start = 0
    for sz in sizes:
        r = ranks[start : start + sz].sum()
        h_raw += r * r / sz
        start += sz
    h_raw = 12.0 / (n * (n + 1.0)) * h_raw - 3.0 * (n + 1.0)
    _, counts = np.unique(values, return_counts=True)
    tie_sum = float(np.sum(counts.astype(np.float64) ** 3 - counts))
    denom = 1.0 - tie_sum / (n**3 - n)
    if denom <= 0.0:
        return 0.0
    return max(float(h_raw) / denom, 0.0)


def kw_permutation(groups, n_resamples, seed):
    """(H, p) from shuffling the pooled scores and re-ranking each resample."""
    pooled = np.concatenate([np.asarray(g, dtype=np.float64) for g in groups])
    sizes = [len(g) for g in groups]
    h = kw_statistic(pooled, sizes)
    rng = np.random.default_rng(seed)
    work = pooled.copy()
    hits = 0
    for _ in range(n_resamples):
        rng.shuffle(work)
        if kw_statistic(work, sizes) >= h - 1e-12:
            hits += 1
    return h, (hits + 1.0) / (n_resamples + 1.0)


def holm(raw):
    """Step-down Holm adjustment of a vector of p-values, one at a time."""
    order = np.argsort(raw, kind="stable")
    m = raw.size
    adj = np.empty_like(raw)
    running = 0.0
    for rank_pos, idx in enumerate(order):
        running = max(running, (m - rank_pos) * raw[idx])
        adj[idx] = min(1.0, running)
    return adj


def conover_iman(groups, h, adjust="none"):
    """Conover-Iman matrix filled pair by pair; the caller checks the gate."""
    pooled = np.concatenate([np.asarray(g, dtype=np.float64) for g in groups])
    sizes = [len(g) for g in groups]
    n_groups = len(sizes)
    n = pooled.size
    ranks = midranks(pooled)
    rbar = np.empty(n_groups)
    start = 0
    for i, sz in enumerate(sizes):
        rbar[i] = ranks[start : start + sz].mean()
        start += sz
    s2 = float((np.sum(ranks * ranks) - n * (n + 1.0) ** 2 / 4.0) / (n - 1.0))
    factor = s2 * (n - 1.0 - h) / (n - n_groups)
    pmat = np.ones((n_groups, n_groups))
    for i in range(n_groups):
        for j in range(i + 1, n_groups):
            diff = rbar[i] - rbar[j]
            if factor <= 0.0:
                p = 1.0 if diff == 0.0 else 0.0
            else:
                se = math.sqrt(factor * (1.0 / sizes[i] + 1.0 / sizes[j]))
                p = min(1.0, 2.0 * t_sf(abs(diff) / se, n - n_groups))
            pmat[i, j] = pmat[j, i] = p
    if adjust == "holm":
        iu = np.triu_indices(n_groups, 1)
        adj = holm(pmat[iu])
        pmat[iu] = adj
        pmat[(iu[1], iu[0])] = adj
    return pmat
