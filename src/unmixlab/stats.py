"""Nonparametric initialization-dependence tests and the retraining planner.

Training results are grouped by weight initialization: group i holds the k
error scores of the runs that started from initialization i. The pipeline
is Levene's test for variance equality, the Kruskal-Wallis H-test for a
location difference between groups, and, only when Kruskal-Wallis rejects,
the Conover-Iman pairwise post-hoc test.

The p-value backends (chi-square, Student t, and F survival functions) are
implemented here on top of the regularized incomplete gamma and beta
functions, so the whole chain is self-contained and checked against
high-precision references in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import numpy.typing as npt

NDArrayF = npt.NDArray[np.float64]

_EPS = 1e-16
_FPMIN = 1e-300
_ITMAX = 1000


class PosthocGateError(RuntimeError):
    """Post-hoc comparison requested without a Kruskal-Wallis rejection."""


class UnreachableThresholdError(ValueError):
    """No observed run beat the threshold, so no retry count exists."""


# ---------------------------------------------------------------------------
# Survival-function backends
# ---------------------------------------------------------------------------

def _lower_gamma_series(a: float, x: float) -> float:
    ap = a
    total = 1.0 / a
    delt = total
    for _ in range(_ITMAX):
        ap += 1.0
        delt *= x / ap
        total += delt
        if abs(delt) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b if b != 0 else 1.0 / _FPMIN
    h = d
    for i in range(1, _ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delt = d * c
        h *= delt
        if abs(delt - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) for a > 0, x >= 0."""
    if a <= 0:
        raise ValueError("shape parameter must be > 0")
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_gamma_series(a, x)
    return _upper_gamma_cf(a, x)


def _floor_tiny(v: NDArrayF) -> NDArrayF:
    v[np.abs(v) < _FPMIN] = _FPMIN
    return v


def _beta_cf(a: NDArrayF, b: NDArrayF, x: NDArrayF) -> NDArrayF:
    """Lentz continued fraction of I_x(a, b), elementwise.

    Every element runs the scalar recurrence's exact arithmetic and keeps
    the h of the step at which its own |delt - 1| fell below _EPS; an
    element that never does keeps the h of step _ITMAX. Each step works
    on the elements still converging only: the ones that converged leave
    every array at that step, with their h written out.
    """
    out = np.empty_like(x)
    pos = np.arange(x.size)  # the out position of each element still converging
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _floor_tiny(1.0 - qab * x / qap)
    h = d.copy()
    with np.errstate(all="ignore"):  # as quiet as the scalar recurrence
        for m in range(1, _ITMAX + 1):
            if not pos.size:
                break
            m2 = 2 * m
            am2 = a + m2
            aa = m * (b - m) * x / ((qam + m2) * am2)
            d = 1.0 / _floor_tiny(1.0 + aa * d)
            c = _floor_tiny(1.0 + aa / c)
            h *= d * c
            aa = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
            d = 1.0 / _floor_tiny(1.0 + aa * d)
            c = _floor_tiny(1.0 + aa / c)
            delt = d * c
            h *= delt
            done = np.abs(delt - 1.0) < _EPS
            if done.any():
                out[pos[done]] = h[done]
                left = ~done
                pos, h, c, d = pos[left], h[left], c[left], d[left]
                a, b, x = a[left], b[left], x[left]
                qab, qap, qam = qab[left], qap[left], qam[left]
    out[pos] = h  # the elements that never converged: step _ITMAX's h
    return out


def _regularized_beta(a: float, b: float, x: NDArrayF) -> NDArrayF:
    """I_x(a, b) elementwise over x in [0, 1] for one shape pair (a, b)."""
    out = np.where(x <= 0.0, 0.0, 1.0)
    inner = ~((x <= 0.0) | (x >= 1.0))
    x = x[inner]
    # the prefactor stays on the math module, whose log may differ from
    # numpy's by an ulp
    lead = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    bt = np.array([
        math.exp(lead + a * math.log(xi) + b * math.log1p(-xi)) for xi in x.tolist()
    ])
    front = x < (a + 1.0) / (a + b + 2.0)
    cf = _beta_cf(
        np.where(front, a, b), np.where(front, b, a), np.where(front, x, 1.0 - x)
    )
    out[inner] = np.where(front, bt * cf / a, 1.0 - bt * cf / b)
    return out


def regularized_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0, x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be > 0")
    return float(_regularized_beta(a, b, np.array([x], dtype=np.float64))[0])


def chi2_sf(x: float, df: float) -> float:
    """Chi-square survival function P(X >= x) with df degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x < 0:
        raise ValueError("x must be >= 0")
    if math.isinf(x):
        return 0.0
    return regularized_gamma_q(df / 2.0, x / 2.0)


def f_sf(x: float, d1: float, d2: float) -> float:
    """F survival function P(F >= x) with (d1, d2) degrees of freedom."""
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x < 0:
        raise ValueError("x must be >= 0")
    if math.isinf(x):
        return 0.0
    return regularized_beta(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x))


# ---------------------------------------------------------------------------
# Rank machinery and grouped scores
# ---------------------------------------------------------------------------

def midranks(values: np.ndarray) -> NDArrayF:
    """Ranks 1..n with ties assigned the average of their positions.

    NaNs never tie: each keeps its own rank, after every number, in
    position order.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("cannot rank an empty vector")
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    new_run = np.ones(v.size, dtype=bool)
    np.not_equal(sorted_v[1:], sorted_v[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    counts = np.diff(starts, append=v.size)
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat(starts + 0.5 * (counts - 1) + 1.0, counts)
    return ranks


@dataclass(frozen=True)
class GroupedScores:
    """One score vector per initialization; groups must be non-empty."""

    groups: tuple[NDArrayF, ...]

    def __post_init__(self):
        if len(self.groups) < 2:
            raise ValueError("need at least two groups")
        frozen = []
        for g in self.groups:
            arr = np.asarray(g, dtype=np.float64).ravel()
            if arr.size == 0:
                raise ValueError("groups must be non-empty")
            if not np.all(np.isfinite(arr)):
                raise ValueError("scores must be finite")
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "groups", tuple(frozen))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(g.size for g in self.groups)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def pooled(self) -> NDArrayF:
        return np.concatenate(self.groups)


def _as_groups(groups) -> GroupedScores:
    if isinstance(groups, GroupedScores):
        return groups
    return GroupedScores(tuple(groups))


def _group_starts(sizes: Sequence[int]) -> npt.NDArray[np.intp]:
    return np.cumsum([0, *sizes[:-1]])


def _tie_denominator(values: NDArrayF) -> float:
    n = values.size
    _, counts = np.unique(values, return_counts=True)
    tie_sum = float(np.sum(counts.astype(np.float64) ** 3 - counts))
    return 1.0 - tie_sum / (n**3 - n)


def _kw_from_rank_sums(
    rank_sums: NDArrayF, sizes: NDArrayF, n: float, denom: float
) -> float:
    """Tie-corrected H from the group rank sums, the group sizes as floats,
    their total n and the tie denominator.

    The terms r*r/n_i add left to right, so any rank vector that gives the
    same (exact, half-integer) rank sums gives the same bits of H.
    """
    if denom <= 0.0:
        return 0.0
    h_raw = np.add.accumulate(rank_sums * rank_sums / sizes)[-1]
    h_raw = 12.0 / (n * (n + 1.0)) * h_raw - 3.0 * (n + 1.0)
    return max(float(h_raw) / denom, 0.0)


def _kw_statistic(values: NDArrayF, sizes: Sequence[int]) -> float:
    """Tie-corrected Kruskal-Wallis H for pooled values split by sizes."""
    rank_sums = np.add.reduceat(midranks(values), _group_starts(sizes))
    return _kw_from_rank_sums(
        rank_sums, np.asarray(sizes, dtype=np.float64), float(sum(sizes)),
        _tie_denominator(values),
    )


def kruskal_wallis(
    groups,
    method: str = "chi2",
    n_resamples: int = 20000,
    seed: int = 0,
) -> tuple[float, float]:
    """Kruskal-Wallis H statistic and p-value over two or more groups.

    H rank-transforms the pooled scores, so it is invariant under strictly
    monotone transforms. The default p-value is the chi-square survival
    function at H with N-1 degrees of freedom; method="permutation" instead
    estimates the p-value from n_resamples >= 1 Monte-Carlo reshufflings of
    the group labels. Shuffling the scores permutes their midranks and keeps
    the tie correction, so the pooled ranks are computed once and each
    resample only shuffles them and sums them per group. When every score
    is tied the statistic degenerates to (H=0, p=1).
    """
    if method not in ("chi2", "permutation"):
        raise ValueError(f"unknown method {method!r}")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    g = _as_groups(groups)
    if g.total < 3:
        raise ValueError("need at least 3 observations in total")
    pooled = g.pooled()
    sizes = g.sizes
    ranks = midranks(pooled)
    starts = _group_starts(sizes)
    # the statistic's constants, built once for every resample
    size_arr = np.asarray(sizes, dtype=np.float64)
    n = float(g.total)
    denom = _tie_denominator(pooled)
    h = _kw_from_rank_sums(np.add.reduceat(ranks, starts), size_arr, n, denom)
    if method == "chi2":
        if h == 0.0 and np.all(pooled == pooled[0]):
            return 0.0, 1.0
        return h, chi2_sf(h, len(sizes) - 1)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_resamples):
        rng.shuffle(ranks)
        rank_sums = np.add.reduceat(ranks, starts)
        if _kw_from_rank_sums(rank_sums, size_arr, n, denom) >= h - 1e-12:
            hits += 1
    return h, (hits + 1.0) / (n_resamples + 1.0)


def levene(groups) -> tuple[float, float]:
    """Levene's test for variance equality (classical mean-centered form).

    Scores are replaced by absolute deviations from their group mean; the
    statistic is the one-way F ratio of those deviations, with p-value from
    the F survival function at (N-1, n-N) degrees of freedom. Every group
    needs at least two scores.
    """
    g = _as_groups(groups)
    if any(sz < 2 for sz in g.sizes):
        raise ValueError("every group needs at least 2 scores")
    n_groups = len(g.groups)
    total = g.total
    z_groups = [np.abs(arr - arr.mean()) for arr in g.groups]
    z_means = np.array([z.mean() for z in z_groups])
    sizes = np.array(g.sizes, dtype=np.float64)
    z_grand = float(np.sum(z_means * sizes) / total)
    between = float(np.sum(sizes * (z_means - z_grand) ** 2))
    within = float(sum(np.sum((z - zm) ** 2) for z, zm in zip(z_groups, z_means)))
    if within == 0.0:
        if between == 0.0:
            return 0.0, 1.0
        return math.inf, 0.0
    w = float((total - n_groups) / (n_groups - 1.0) * between / within)
    return w, f_sf(w, n_groups - 1, total - n_groups)


def conover_iman(
    groups,
    h: float | None = None,
    alpha: float = 0.05,
    adjust: str = "none",
) -> NDArrayF:
    """Pairwise post-hoc p-value matrix after a Kruskal-Wallis rejection.

    The pair statistic is t_ij = (Rbar_i - Rbar_j) / sqrt(S^2 * ((n-1-H)/(n-N))
    * (1/n_i + 1/n_j)) with S^2 the variance of the pooled ranks; two-sided
    p-values come from the t survival function with n-N degrees of freedom.
    The matrix is symmetric with unit diagonal. Raises PosthocGateError when
    the Kruskal-Wallis p-value implied by H does not reject at alpha: the
    test is defined only after rejection.

    adjust="holm" applies a step-down adjustment over the pairs; default is
    the raw p-values. Every pair's statistic and p-value comes from one
    array pass.
    """
    if adjust not in ("none", "holm"):
        raise ValueError(f"unknown adjustment {adjust!r}")
    g = _as_groups(groups)
    pooled = g.pooled()
    sizes = g.sizes
    n_groups = len(sizes)
    n = g.total
    if h is None:
        h = _kw_statistic(pooled, sizes)
    p_kw = chi2_sf(h, n_groups - 1) if n > 2 else 1.0
    if not p_kw < alpha:
        raise PosthocGateError(
            f"Kruskal-Wallis did not reject (p={p_kw:.4g} >= alpha={alpha}); "
            "post-hoc comparisons are undefined"
        )
    if n - n_groups < 1:
        raise ValueError("need more observations than groups")
    ranks = midranks(pooled)
    rbar = np.add.reduceat(ranks, _group_starts(sizes)) / sizes
    s2 = float((np.sum(ranks * ranks) - n * (n + 1.0) ** 2 / 4.0) / (n - 1.0))
    factor = s2 * (n - 1.0 - h) / (n - n_groups)
    iu = np.triu_indices(n_groups, 1)
    diff = rbar[iu[0]] - rbar[iu[1]]
    if factor <= 0.0:
        raw = np.where(diff == 0.0, 1.0, 0.0)
    else:
        inv = 1.0 / np.asarray(sizes)
        t = np.abs(diff) / np.sqrt(factor * (inv[iu[0]] + inv[iu[1]]))
        df = n - n_groups
        tail = 0.5 * _regularized_beta(df / 2.0, 0.5, df / (df + t * t))
        raw = np.minimum(1.0, 2.0 * np.where(t == 0.0, 0.5, tail))
    if adjust == "holm":
        order = np.argsort(raw, kind="stable")
        m = raw.size
        adj = np.empty_like(raw)
        adj[order] = np.minimum(
            1.0, np.maximum.accumulate((m - np.arange(m)) * raw[order])
        )
        raw = adj
    pmat = np.ones((n_groups, n_groups))
    pmat[iu] = raw
    pmat[(iu[1], iu[0])] = raw
    return pmat


def ph_ratio(posthoc: np.ndarray, alpha: float) -> float:
    """Fraction of distinct group pairs with post-hoc p below alpha."""
    p = np.asarray(posthoc, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 2:
        raise ValueError("post-hoc matrix must be square with >= 2 groups")
    iu = np.triu_indices(p.shape[0], 1)
    return float(np.mean(p[iu] < alpha))


# ---------------------------------------------------------------------------
# Retraining planner
# ---------------------------------------------------------------------------

METRIC_NAMES = ("recon_rmse", "recon_sad", "abundance_rmse", "endmember_sad")


def metric_values(records: Iterable, metric: str) -> NDArrayF:
    """One score per record, read from the attribute named metric (one of
    METRIC_NAMES); diverged or unscored runs become +inf."""
    if metric not in METRIC_NAMES:
        raise ValueError(f"unknown metric {metric!r}; expected {METRIC_NAMES}")
    records = list(records)
    diverged = [getattr(rec, "diverged", False) for rec in records]
    return metric_column(
        diverged, [None if dv else getattr(rec, metric) for rec, dv in zip(records, diverged)]
    )


def metric_column(diverged: Sequence[bool], scores: Sequence) -> NDArrayF:
    """metric_values of records given as two columns, one entry per
    record: its diverged flag and its metric attribute. A caller that
    reads several fields of the same records reads each flag once."""
    out = [
        math.inf if dv or val is None else float(val)
        for dv, val in zip(diverged, scores, strict=True)
    ]
    if not out:
        raise ValueError("no records given")
    return np.asarray(out)


def estimate_success_prob(records: Iterable, metric: str, threshold: float) -> float:
    """Empirical probability that one training run scores below threshold
    on the metric named metric (one of METRIC_NAMES).

    Diverged runs count as failures in the denominator.
    """
    values = metric_values(records, metric)
    return float(np.mean(values < threshold))


def required_trials(p_hat: float, p_req: float) -> int:
    """Independent retrainings needed for >= p_req chance of one success.

    Solves 1 - (1 - p_hat)^n >= p_req for the smallest integer n:
    ceil(log(1 - p_req) / log(1 - p_hat)). p_hat = 1 needs a single trial;
    p_hat = 0 has no finite answer and raises UnreachableThresholdError.
    """
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError("p_hat must lie in [0, 1]")
    if not 0.0 < p_req < 1.0:
        raise ValueError("p_req must lie in (0, 1)")
    if p_hat == 0.0:
        raise UnreachableThresholdError("estimated success probability is zero")
    if p_hat == 1.0:
        return 1
    n = math.ceil(math.log1p(-p_req) / math.log1p(-p_hat))
    return max(1, n)


# ---------------------------------------------------------------------------
# Full analysis pipeline and report serialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatReport:
    """Outcome of the Levene / Kruskal-Wallis / Conover-Iman pipeline.
    Levene's fields are None when a group has fewer than 2 scores."""

    alpha: float
    metric: str
    group_sizes: tuple[int, ...]
    levene_stat: float | None
    levene_p: float | None
    kw_h: float
    kw_p: float
    kw_log_p: float
    posthoc: NDArrayF | None
    ph_ratio: float | None

    @property
    def rejected(self) -> bool:
        return self.kw_p < self.alpha


def analyze_grouped(
    groups,
    alpha: float = 0.05,
    metric: str = "recon_rmse",
    adjust: str = "none",
) -> StatReport:
    """Run the test pipeline on grouped scores.

    Levene's test is skipped, its fields None, when a group has fewer than
    2 scores. The post-hoc matrix and significant-pair ratio are filled only
    when Kruskal-Wallis rejects at alpha; p-values below the float64 log
    range report their natural log as -inf.
    """
    g = _as_groups(groups)
    lev_w = lev_p = None
    if min(g.sizes) >= 2:
        lev_w, lev_p = levene(g)
    h, p = kruskal_wallis(g)
    log_p = math.log(p) if p > 0.0 else -math.inf
    posthoc = None
    ratio = None
    if p < alpha:
        posthoc = conover_iman(g, h=h, alpha=alpha, adjust=adjust)
        ratio = ph_ratio(posthoc, alpha)
    return StatReport(
        alpha=alpha,
        metric=metric,
        group_sizes=g.sizes,
        levene_stat=lev_w,
        levene_p=lev_p,
        kw_h=h,
        kw_p=p,
        kw_log_p=log_p,
        posthoc=posthoc,
        ph_ratio=ratio,
    )


def group_scores(records: Iterable, metric="recon_rmse") -> GroupedScores:
    """Group record scores by init_id for the stability test.

    Scores come from metric_values; the runs it scores +inf (diverged or
    unscored) and any other non-finite score are dropped, so an
    initialization whose runs all diverged forms no group. The retry
    planner counts those same runs as failures instead.
    """
    records = list(records)
    values = metric_values(records, metric)
    return group_by_init([rec.init_id for rec in records], values)


def group_by_init(init_ids: Sequence[int], values: NDArrayF) -> GroupedScores:
    """group_scores of records given as two columns: each record's init_id
    and its metric_values score."""
    ids = np.asarray(init_ids, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if ids.shape != values.shape:
        raise ValueError(f"{ids.size} init ids for {values.size} scores")
    scored = np.isfinite(values)
    ids, values = ids[scored], values[scored]
    # a stable sort keeps each group's scores in record order
    order = np.argsort(ids, kind="stable")
    ids, values = ids[order], values[order]
    groups = np.split(values, np.flatnonzero(ids[1:] != ids[:-1]) + 1)
    if len(groups) < 2:
        raise ValueError("need scored records from at least two initializations")
    return GroupedScores(tuple(groups))


LEVENE_NOT_RUN = "levene: not run (a group has fewer than 2 scores)"


def write_stat_report(report: StatReport, out_dir) -> list[Path]:
    """Write the text report plus, when present, the post-hoc CSV files.

    Produces stat_report.txt always; posthoc_matrix.csv (the square p-value
    matrix) and posthoc_long.csv (rows i,j,p,significant for heat-map
    rendering, 1-based group ids) only when the post-hoc stage ran.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    levene_lines = [LEVENE_NOT_RUN] if report.levene_stat is None else [
        f"levene_stat: {report.levene_stat!r}",
        f"levene_p: {report.levene_p!r}",
    ]
    lines = [
        f"metric: {report.metric}",
        f"alpha: {report.alpha!r}",
        f"groups: {len(report.group_sizes)}",
        f"group_sizes: {','.join(str(s) for s in report.group_sizes)}",
        *levene_lines,
        f"kw_h: {report.kw_h!r}",
        f"kw_p: {report.kw_p!r}",
        f"kw_log_p: {report.kw_log_p!r}",
        f"h0_rejected: {report.rejected}",
    ]
    if report.posthoc is None:
        lines.append("posthoc: not run (Kruskal-Wallis did not reject)")
    else:
        lines.append(f"ph_ratio: {report.ph_ratio!r}")
    report_path = out / "stat_report.txt"
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(report_path)

    if report.posthoc is not None:
        # each distinct p-value (by its bits: -0.0 is not 0.0) is formatted
        # once, for both files, which are written as one text each with
        # csv.writer's bytes: "\r\n" line ends, and no field here needs quotes
        bits = np.ascontiguousarray(report.posthoc, dtype=np.float64).view(np.uint64)
        distinct, where = np.unique(bits, return_inverse=True)
        text = np.array([repr(p) for p in distinct.view(np.float64).tolist()], dtype=object)
        cells = text[where.reshape(bits.shape)].tolist()
        significant = report.posthoc < report.alpha
        np.fill_diagonal(significant, False)
        mat_path = out / "posthoc_matrix.csv"
        mat_path.write_text(
            "".join([",".join(row) + "\r\n" for row in cells]), encoding="utf-8", newline=""
        )
        written.append(mat_path)

        long_path = out / "posthoc_long.csv"
        ids = range(1, len(cells) + 1)
        long_path.write_text(
            "i,j,p,significant\r\n" + "".join([
                f"{i},{j},{p},{sig}\r\n"
                for i, row, sig_row in zip(ids, cells, significant.tolist())
                for j, p, sig in zip(ids, row, sig_row)
            ]),
            encoding="utf-8", newline="",
        )
        written.append(long_path)
    return written
