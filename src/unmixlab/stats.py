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

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

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


def _beta_cf(a: float, b: float, x: float) -> float:
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


def regularized_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0, x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be > 0")
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
        return bt * _beta_cf(a, b, x) / a
    return 1.0 - bt * _beta_cf(b, a, 1.0 - x) / b


def chi2_sf(x: float, df: float) -> float:
    """Chi-square survival function P(X >= x) with df degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x < 0:
        raise ValueError("x must be >= 0")
    if math.isinf(x):
        return 0.0
    return regularized_gamma_q(df / 2.0, x / 2.0)


def t_sf(x: float, df: float) -> float:
    """Student t survival function P(T >= x) with df degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x == 0.0:
        return 0.5
    if math.isinf(x):
        return 0.0 if x > 0 else 1.0
    tail = 0.5 * regularized_beta(df / 2.0, 0.5, df / (df + x * x))
    return tail if x > 0 else 1.0 - tail


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
    """Ranks 1..n with ties assigned the average of their positions."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("cannot rank an empty vector")
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    sorted_v = v[order]
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
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


def _kw_statistic(values: NDArrayF, sizes: Sequence[int]) -> float:
    """Tie-corrected Kruskal-Wallis H for pooled values split by sizes."""
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
    estimates the p-value by Monte-Carlo reshuffling of group labels. When
    every score is tied the statistic degenerates to (H=0, p=1).
    """
    g = _as_groups(groups)
    if g.total < 3:
        raise ValueError("need at least 3 observations in total")
    pooled = g.pooled()
    sizes = g.sizes
    h = _kw_statistic(pooled, sizes)
    if method == "chi2":
        if h == 0.0 and np.all(pooled == pooled[0]):
            return 0.0, 1.0
        return h, chi2_sf(h, len(sizes) - 1)
    if method == "permutation":
        rng = np.random.default_rng(seed)
        work = pooled.copy()
        hits = 0
        for _ in range(n_resamples):
            rng.shuffle(work)
            if _kw_statistic(work, sizes) >= h - 1e-12:
                hits += 1
        return h, (hits + 1.0) / (n_resamples + 1.0)
    raise ValueError(f"unknown method {method!r}")


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
    the raw p-values.
    """
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
        raw = pmat[iu]
        order = np.argsort(raw, kind="stable")
        m = raw.size
        adj = np.empty_like(raw)
        running = 0.0
        for rank_pos, idx in enumerate(order):
            running = max(running, (m - rank_pos) * raw[idx])
            adj[idx] = min(1.0, running)
        pmat[iu] = adj
        pmat[(iu[1], iu[0])] = adj
    elif adjust != "none":
        raise ValueError(f"unknown adjustment {adjust!r}")
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


def metric_values(records: Iterable, metric) -> NDArrayF:
    """Extract one score per record; diverged or unscored runs become +inf.

    `metric` is an attribute name (one of recon_rmse, recon_sad,
    abundance_rmse, endmember_sad) or a callable on the record.
    """
    if callable(metric):
        getter: Callable = metric
    else:
        if metric not in METRIC_NAMES:
            raise ValueError(f"unknown metric {metric!r}; expected {METRIC_NAMES}")
        getter = lambda r: getattr(r, metric)  # noqa: E731
    out = []
    for rec in records:
        if getattr(rec, "diverged", False):
            out.append(math.inf)
            continue
        val = getter(rec)
        out.append(math.inf if val is None else float(val))
    if not out:
        raise ValueError("no records given")
    return np.asarray(out)


def estimate_success_prob(records: Iterable, metric, threshold: float) -> float:
    """Empirical probability that one training run scores below threshold.

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


@dataclass(frozen=True)
class RetryPlan:
    """How many retrainings reach the error threshold with given confidence."""

    threshold: float
    p_hat: float
    p_req: float
    n_req: int


def plan_retries(
    records: Iterable, metric, threshold: float, p_req: float = 0.95
) -> RetryPlan:
    """Estimate the success probability from records and size the retry count."""
    p_hat = estimate_success_prob(records, metric, threshold)
    return RetryPlan(
        threshold=float(threshold),
        p_hat=p_hat,
        p_req=float(p_req),
        n_req=required_trials(p_hat, p_req),
    )


# ---------------------------------------------------------------------------
# Full analysis pipeline and report serialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatReport:
    """Outcome of the Levene / Kruskal-Wallis / Conover-Iman pipeline."""

    alpha: float
    metric: str
    group_sizes: tuple[int, ...]
    levene_stat: float
    levene_p: float
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

    The post-hoc matrix and significant-pair ratio are filled only when
    Kruskal-Wallis rejects at alpha; p-values below the float64 log range
    report their natural log as -inf.
    """
    g = _as_groups(groups)
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
    """Group record scores by init_id, dropping diverged or unscored runs."""
    buckets: dict[int, list[float]] = {}
    if callable(metric):
        getter = metric
    else:
        getter = lambda r: getattr(r, metric)  # noqa: E731
    for rec in records:
        if getattr(rec, "diverged", False):
            continue
        val = getter(rec)
        if val is None or not math.isfinite(float(val)):
            continue
        buckets.setdefault(int(rec.init_id), []).append(float(val))
    if len(buckets) < 2:
        raise ValueError("need scored records from at least two initializations")
    ordered = [np.asarray(buckets[k]) for k in sorted(buckets)]
    return GroupedScores(tuple(ordered))


def analyze_records(
    records: Iterable,
    metric: str = "recon_rmse",
    alpha: float = 0.05,
    adjust: str = "none",
) -> StatReport:
    """Group records by initialization and run the full test pipeline."""
    return analyze_grouped(
        group_scores(records, metric), alpha=alpha, metric=metric, adjust=adjust
    )


def write_stat_report(report: StatReport, out_dir) -> list[Path]:
    """Write the text report plus, when present, the post-hoc CSV files.

    Produces stat_report.txt always; posthoc_matrix.csv (the square p-value
    matrix) and posthoc_long.csv (rows i,j,p,significant for heat-map
    rendering, 1-based group ids) only when the post-hoc stage ran.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    lines = [
        f"metric: {report.metric}",
        f"alpha: {report.alpha!r}",
        f"groups: {len(report.group_sizes)}",
        f"group_sizes: {','.join(str(s) for s in report.group_sizes)}",
        f"levene_stat: {report.levene_stat!r}",
        f"levene_p: {report.levene_p!r}",
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
        mat_path = out / "posthoc_matrix.csv"
        with open(mat_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for row in report.posthoc:
                writer.writerow([repr(float(p)) for p in row])
        written.append(mat_path)

        long_path = out / "posthoc_long.csv"
        with open(long_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "j", "p", "significant"])
            n = report.posthoc.shape[0]
            for i in range(n):
                for j in range(n):
                    p = float(report.posthoc[i, j])
                    writer.writerow(
                        [i + 1, j + 1, repr(p), str(i != j and p < report.alpha)]
                    )
        written.append(long_path)
    return written
