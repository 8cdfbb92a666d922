"""Rank tests against hand computations, permutation oracles, and scipy."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import scipy.stats

from unmixlab.stats import (
    GroupedScores,
    PosthocGateError,
    UnreachableThresholdError,
    analyze_grouped,
    chi2_sf,
    conover_iman,
    estimate_success_prob,
    group_scores,
    kruskal_wallis,
    levene,
    midranks,
    ph_ratio,
    required_trials,
    write_stat_report,
)
from unmixlab import stats
from unmixlab.stats import _kw_statistic

import stats_oracles as oracles


def stats_50x50_groups(seed):
    """50 groups of up to 50 tied scores shaped like a 50x50 grid's.

    Scores are rounded to 4 decimals, so many tie; six runs are dropped as
    diverged, so the group sizes differ.
    """
    rng = np.random.default_rng([seed, 4])
    effect = np.exp(0.08 * rng.standard_normal(50))
    scores = np.round(
        0.02 * effect[:, None] * np.exp(0.2 * rng.standard_normal((50, 50))), 4)
    kept = np.ones(2500, dtype=bool)
    kept[rng.choice(2500, 6, replace=False)] = False
    kept = kept.reshape(50, 50)
    return [scores[i][kept[i]] for i in range(50)]


class TestMidranks:
    def test_distinct_values(self):
        np.testing.assert_array_equal(midranks([10, 20, 30]), [1, 2, 3])

    def test_full_tie(self):
        np.testing.assert_array_equal(midranks([5, 5]), [1.5, 1.5])

    def test_partial_tie(self):
        np.testing.assert_array_equal(midranks([3, 1, 3, 2]), [3.5, 1, 3.5, 2])

    def test_ranks_sum_to_triangular_number(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.integers(0, 5, size=rng.integers(2, 30)).astype(float)
            r = midranks(v)
            n = v.size
            assert r.sum() == pytest.approx(n * (n + 1) / 2)

    def test_matches_the_counting_definition(self):
        """rank(x) = #(v < x) + (#(v == x) + 1) / 2, over every element."""
        rng = np.random.default_rng(1)
        cases = [np.array([np.inf, -np.inf, 0.0, np.inf, -0.0, -np.inf, 2.5])]
        for _ in range(50):
            v = rng.integers(-3, 4, size=rng.integers(1, 40)).astype(float)
            v[rng.random(v.size) < 0.1] = np.inf
            v[rng.random(v.size) < 0.1] = -np.inf
            cases.append(v)
        for v in cases:
            expected = [np.sum(v < x) + (np.sum(v == x) + 1) / 2 for x in v]
            np.testing.assert_array_equal(midranks(v), expected)

    def test_nans_rank_last_in_position_order(self):
        np.testing.assert_array_equal(midranks([np.nan, 1.0, np.nan, 1.0]),
                                      [3, 1.5, 4, 1.5])


def exhaustive_kw_p(groups):
    """Exact permutation p-value by enumerating all group assignments.

    Independent oracle: enumerates every way to partition the pooled values
    into groups of the observed sizes via index combinations.
    """
    pooled = np.concatenate([np.asarray(g, dtype=float) for g in groups])
    sizes = [len(g) for g in groups]
    h_obs = _kw_statistic(pooled, sizes)
    n = pooled.size
    hits = 0
    total = 0

    def assign(remaining_idx, sizes_left):
        nonlocal hits, total
        if not sizes_left:
            arrangement = []
            return [[]]
        first, rest = sizes_left[0], sizes_left[1:]
        out = []
        for combo in itertools.combinations(remaining_idx, first):
            leftover = [i for i in remaining_idx if i not in combo]
            for tail in assign(leftover, rest):
                out.append([list(combo)] + tail)
        return out

    for parts in assign(list(range(n)), sizes):
        values = np.concatenate([pooled[p] for p in parts])
        if _kw_statistic(values, sizes) >= h_obs - 1e-12:
            hits += 1
        total += 1
    return hits / total


class TestKruskalWallis:
    def test_hand_computed_three_groups(self):
        """Ranks 1..9 give H = 7.2 and p = exp(-3.6) for df = 2."""
        h, p = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert h == pytest.approx(7.2, abs=1e-9)
        assert p == pytest.approx(math.exp(-3.6), abs=1e-7)

    def test_identical_constant_groups_degenerate(self):
        h, p = kruskal_wallis([[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]])
        assert h == 0.0 and p == 1.0

    def test_matches_scipy_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            groups = [
                rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(3, 12))
                for _ in range(rng.integers(2, 6))
            ]
            h, p = kruskal_wallis(groups)
            ref = scipy.stats.kruskal(*groups)
            assert h == pytest.approx(ref.statistic, rel=1e-10)
            assert p == pytest.approx(ref.pvalue, rel=1e-8)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            groups = [
                rng.integers(0, 4, size=rng.integers(4, 10)).astype(float)
                for _ in range(3)
            ]
            if all(np.all(g == groups[0][0]) for g in groups):
                continue
            h, p = kruskal_wallis(groups)
            ref = scipy.stats.kruskal(*groups)
            assert h == pytest.approx(ref.statistic, rel=1e-10)

    def test_permutation_p_matches_exhaustive_on_small_instances(self):
        """Validation-mode p within 0.02 of exact enumeration for n <= 8.

        The exact null distribution on so few points is a coarse lattice, so
        the in-repo Monte-Carlo permutation mode (not the continuous
        chi-square tail) is the quantity comparable to the brute-force
        oracle at this size.
        """
        instances = [
            [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]],
            [[1.0, 2.0, 7.0], [3.0, 8.0], [4.0, 6.0, 5.0]],
            [[0.3, 1.2, 0.8], [0.9, 1.5, 0.1], [1.1, 0.4]],
            [[5.0, 5.0, 1.0], [2.0, 5.0, 3.0], [4.0, 6.0]],
        ]
        for groups in instances:
            _, p_mc = kruskal_wallis(
                groups, method="permutation", n_resamples=40000, seed=3
            )
            p_exact = exhaustive_kw_p(groups)
            assert abs(p_mc - p_exact) < 0.02, (groups, p_mc, p_exact)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        groups = [rng.uniform(0.1, 2.0, size=8) for _ in range(4)]
        h1, p1 = kruskal_wallis(groups)
        h2, p2 = kruskal_wallis([np.exp(g) for g in groups])
        h3, p3 = kruskal_wallis([g**3 for g in groups])
        assert h1 == pytest.approx(h2, abs=1e-12) == pytest.approx(h3, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            kruskal_wallis([[1.0, 2.0], []])

    @pytest.mark.parametrize("kwargs,message", [
        ({"method": "permutation", "n_resamples": 0}, "n_resamples"),
        ({"method": "permutation", "n_resamples": -1}, "n_resamples"),
        ({"method": "permutation", "n_resamples": -2}, "n_resamples"),
        ({"method": "exact"}, "unknown method"),
    ], ids=["zero-resamples", "minus-one", "minus-two", "unknown-method"])
    def test_bad_arguments_rejected_before_ranking(self, monkeypatch, kwargs, message):
        def no_ranking(values):
            raise AssertionError("ranked before the arguments were checked")

        monkeypatch.setattr(stats, "midranks", no_ranking)
        with pytest.raises(ValueError, match=message):
            kruskal_wallis([[1.0, 2.0], [3.0, 4.0]], **kwargs)

    def test_permutation_is_the_reranking_loop_bit_for_bit(self):
        """Shuffled precomputed ranks give the re-ranking loop's (H, p)."""
        rng = np.random.default_rng(13)
        cases = [
            ([[1.0], [2.0, 3.0], [4.0]], 300, 0),  # size-1 groups
            ([[2.0, 2.0], [2.0, 2.0, 2.0]], 50, 1),  # all tied: H = 0
            ([[1.0, 2.0, 2.0], [2.0, 5.0], [0.5]], 1, 2),  # one resample
            (stats_50x50_groups(911), 100, 911),
        ]
        for k in range(40):
            groups = [
                rng.integers(0, rng.integers(2, 8), size=rng.integers(1, 12)).astype(float)
                for _ in range(rng.integers(2, 7))
            ]
            if sum(g.size for g in groups) >= 3:
                cases.append((groups, 300, k))
        for groups, n_resamples, seed in cases:
            got = kruskal_wallis(groups, method="permutation",
                                 n_resamples=n_resamples, seed=seed)
            assert got == oracles.kw_permutation(groups, n_resamples, seed), groups
        assert kruskal_wallis(cases[1][0], method="permutation",
                              n_resamples=50, seed=1) == (0.0, 1.0)

    def test_under_null_rejection_rate(self):
        """Seeded H0 simulations reject at about the nominal 5% level."""
        rng = np.random.default_rng(5)
        rejections = 0
        n_sims = 2000
        for _ in range(n_sims):
            groups = rng.normal(size=(5, 10))
            _, p = kruskal_wallis(list(groups))
            if p < 0.05:
                rejections += 1
        rate = rejections / n_sims
        assert 0.03 <= rate <= 0.07, rate


class TestLevene:
    def test_identical_spread_groups(self):
        """Both groups have deviations (1,0,1): zero between-group spread."""
        w, p = levene([[1, 2, 3], [4, 5, 6]])
        assert w == 0.0 and p == 1.0

    def test_duplicated_group_gives_zero(self):
        g = [0.3, 1.7, 0.9, 1.1]
        w, _ = levene([g, list(g)])
        assert w == pytest.approx(0.0, abs=1e-12)

    def test_direct_formula_oracle(self):
        """Independent direct evaluation of the deviation F-ratio."""
        groups = [np.array([0.0, 10.0, 1.0]), np.array([4.0, 6.0, 5.5])]
        z = [np.abs(g - g.mean()) for g in groups]
        zi = np.array([zz.mean() for zz in z])
        nvec = np.array([3.0, 3.0])
        zg = (zi * nvec).sum() / 6.0
        between = (nvec * (zi - zg) ** 2).sum()
        within = sum(((zz - m) ** 2).sum() for zz, m in zip(z, zi))
        expected = (6 - 2) / (2 - 1) * between / within
        w, _ = levene(groups)
        assert w == pytest.approx(expected, rel=1e-12)

    def test_degenerate_within_zero(self):
        w, p = levene([[0.0, 10.0], [4.0, 6.0]])
        assert math.isinf(w) and p == 0.0

    def test_matches_scipy_mean_centered(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            groups = [
                rng.normal(scale=rng.uniform(0.5, 3.0), size=rng.integers(4, 15))
                for _ in range(rng.integers(2, 5))
            ]
            w, p = levene(groups)
            ref = scipy.stats.levene(*groups, center="mean")
            assert w == pytest.approx(ref.statistic, rel=1e-10)
            assert p == pytest.approx(ref.pvalue, rel=1e-8)

    def test_small_group_rejected(self):
        with pytest.raises(ValueError):
            levene([[1.0], [2.0, 3.0]])


def mc_conover_reference(groups, n_shuffles, seed):
    """Monte-Carlo permutation reference for the pairwise statistics.

    For each shuffle of the pooled scores the full pair statistic (including
    the rank variance and H in the denominator) is recomputed; the reference
    p is the two-sided exceedance frequency.
    """
    pooled = np.concatenate([np.asarray(g, float) for g in groups])
    sizes = [len(g) for g in groups]
    n = pooled.size
    n_groups = len(sizes)

    def pair_stats(values):
        ranks = midranks(values)
        h = _kw_statistic(values, sizes)
        rbar = []
        start = 0
        for sz in sizes:
            rbar.append(ranks[start : start + sz].mean())
            start += sz
        s2 = (np.sum(ranks**2) - n * (n + 1) ** 2 / 4) / (n - 1)
        factor = s2 * (n - 1 - h) / (n - n_groups)
        out = {}
        for i in range(n_groups):
            for j in range(i + 1, n_groups):
                se = math.sqrt(max(factor, 1e-300) * (1 / sizes[i] + 1 / sizes[j]))
                out[(i, j)] = (rbar[i] - rbar[j]) / se
        return out

    obs = pair_stats(pooled)
    rng = np.random.default_rng(seed)
    hits = {k: 0 for k in obs}
    work = pooled.copy()
    for _ in range(n_shuffles):
        rng.shuffle(work)
        stats = pair_stats(work)
        for k in obs:
            if abs(stats[k]) >= abs(obs[k]) - 1e-12:
                hits[k] += 1
    return {k: (hits[k] + 1) / (n_shuffles + 1) for k in obs}


class TestConoverIman:
    def test_gate_requires_rejection(self):
        rng = np.random.default_rng(7)
        groups = [rng.normal(size=10) for _ in range(3)]
        h, p = kruskal_wallis(groups)
        if p < 0.05:  # make a null-like instance deterministically
            groups = [np.arange(10.0), np.arange(10.0) + 0.01, np.arange(10.0) - 0.01]
            h, p = kruskal_wallis(groups)
        assert p >= 0.05
        with pytest.raises(PosthocGateError):
            conover_iman(groups, h=h)

    def test_identical_rank_means_give_p_one(self):
        # groups 1 and 2 interleave (equal rank means); group 3 sits far away
        # so the overall test rejects and the gate opens
        groups = [[1.0, 4.0, 5.0, 8.0], [2.0, 3.0, 6.0, 7.0],
                  [50.0, 60.0, 70.0, 80.0]]
        h = _kw_statistic(np.concatenate(groups), [4, 4, 4])
        assert chi2_sf(h, 2) < 0.05
        pm = conover_iman(groups, h=h)
        assert pm[0, 1] == pytest.approx(1.0)

    def test_matrix_shape_properties(self):
        rng = np.random.default_rng(8)
        groups = [rng.normal(loc=i * 2.0, size=8) for i in range(4)]
        pm = conover_iman(groups)
        assert pm.shape == (4, 4)
        np.testing.assert_array_equal(np.diag(pm), 1.0)
        np.testing.assert_array_equal(pm, pm.T)
        assert np.all(pm >= 0) and np.all(pm <= 1)

    def test_matches_permutation_reference(self):
        """Pairwise p-values within 0.03 of a 1e5-shuffle reference."""
        rng = np.random.default_rng(10)
        groups = [
            rng.normal(0.0, 1.0, size=8),
            rng.normal(1.5, 1.0, size=8),
            rng.normal(0.6, 1.0, size=8),
        ]
        h = _kw_statistic(np.concatenate(groups), [8, 8, 8])
        assert chi2_sf(h, 2) < 0.05
        pm = conover_iman(groups, h=h)
        ref = mc_conover_reference(groups, n_shuffles=100_000, seed=10)
        for (i, j), p_ref in ref.items():
            assert abs(pm[i, j] - p_ref) < 0.03, ((i, j), pm[i, j], p_ref)

    def test_matrix_is_the_scalar_pair_loop_bit_for_bit(self):
        """Raw and Holm matrices equal the pair-by-pair scalar loop.

        The Holm case compares the array step-down with the one-at-a-time
        loop in stats_oracles.holm.
        """
        rng = np.random.default_rng(14)
        cases = [
            stats_50x50_groups(912),
            # H > n - 1 by rounding, so factor <= 0 and p is 0 or 1
            [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0]],
            [[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [3.0, 3.0, 3.0, 3.0]],
        ]
        while len(cases) < 40:
            # small integer scores: equal rank means, so diff == 0 pairs
            groups = [rng.integers(0, 4, size=rng.integers(1, 7)).astype(float) + i // 2
                      for i in range(rng.integers(3, 10))]
            if kruskal_wallis(groups)[1] < 0.05:
                cases.append(groups)
        zero_diff_cases = 0
        for groups in cases:
            pooled = np.concatenate(groups)
            h = oracles.kw_statistic(pooled, [len(g) for g in groups])
            for adjust in ("none", "holm"):
                want = oracles.conover_iman(groups, h, adjust)
                got = conover_iman(groups, h=h, adjust=adjust)
                assert got.tobytes() == want.tobytes(), (groups, adjust)
            rank_means = [r.mean() for r in np.split(
                midranks(pooled), np.cumsum([len(g) for g in groups])[:-1])]
            zero_diff_cases += len(set(rank_means)) < len(rank_means)
        assert zero_diff_cases >= 5, zero_diff_cases

    def test_unknown_adjustment_rejected_before_the_gate(self):
        groups = [[1.0, 5.0, 3.0], [2.0, 4.0, 6.0]]
        assert kruskal_wallis(groups)[1] >= 0.05
        with pytest.raises(ValueError, match="unknown adjustment"):
            conover_iman(groups, adjust="bonferroni")

    def test_holm_adjustment_is_monotone_and_larger(self):
        rng = np.random.default_rng(11)
        groups = [rng.normal(loc=i, size=7) for i in range(4)]
        raw = conover_iman(groups)
        adj = conover_iman(groups, adjust="holm")
        iu = np.triu_indices(4, 1)
        assert np.all(adj[iu] >= raw[iu] - 1e-15)
        assert np.all(adj[iu] <= 1.0)


class TestPhRatio:
    def test_all_significant(self):
        pm = np.full((4, 4), 0.01)
        np.fill_diagonal(pm, 1.0)
        assert ph_ratio(pm, 0.05) == 1.0

    def test_none_significant(self):
        pm = np.full((4, 4), 0.5)
        np.fill_diagonal(pm, 1.0)
        assert ph_ratio(pm, 0.05) == 0.0

    def test_half_significant(self):
        pm = np.ones((3, 3))
        pm[0, 1] = pm[1, 0] = 0.01
        pm[0, 2] = pm[2, 0] = 0.01
        pm[1, 2] = pm[2, 1] = 0.2
        assert ph_ratio(pm, 0.05) == pytest.approx(2.0 / 3.0)


class TestInvariances:
    def test_additive_shift_leaves_all_outputs_unchanged(self):
        rng = np.random.default_rng(12)
        groups = [rng.normal(loc=i, size=9) for i in range(3)]
        shifted = [g + 123.456 for g in groups]
        w1, lp1 = levene(groups)
        w2, lp2 = levene(shifted)
        h1, p1 = kruskal_wallis(groups)
        h2, p2 = kruskal_wallis(shifted)
        assert w1 == pytest.approx(w2, rel=1e-9)
        assert lp1 == pytest.approx(lp2, rel=1e-9)
        assert h1 == pytest.approx(h2, abs=1e-10)
        assert p1 == pytest.approx(p2, rel=1e-9)
        if p1 < 0.05:
            np.testing.assert_allclose(
                conover_iman(groups, h=h1), conover_iman(shifted, h=h2), atol=1e-10
            )


class TestPlanner:
    def test_estimate_counts_fraction_below_threshold(self):
        from types import SimpleNamespace
        recs = [SimpleNamespace(recon_rmse=v, diverged=False) for v in (0.1, 0.2, 0.3)]
        assert estimate_success_prob(recs, "recon_rmse", 0.15) == pytest.approx(1 / 3)
        assert estimate_success_prob(recs, "recon_rmse", 0.05) == 0.0
        assert estimate_success_prob(recs, "recon_rmse", 0.35) == 1.0

    def test_diverged_records_count_as_failures(self):
        from types import SimpleNamespace
        recs = [
            SimpleNamespace(recon_rmse=0.01, diverged=False),
            SimpleNamespace(recon_rmse=None, diverged=True),
        ]
        assert estimate_success_prob(recs, "recon_rmse", 0.05) == 0.5

    def test_required_trials_reference_values(self):
        assert required_trials(0.5, 0.95) == 5
        assert required_trials(0.259, 0.95) == 10
        assert required_trials(0.95, 0.95) == 1
        assert required_trials(1.0, 0.95) == 1

    def test_required_trials_monotonicity(self):
        """Non-increasing in p_hat, non-decreasing in p_req."""
        p_hats = np.linspace(0.02, 0.99, 40)
        p_reqs = np.linspace(0.5, 0.995, 30)
        for p_req in (0.5, 0.9, 0.99):
            ns = [required_trials(p, p_req) for p in p_hats]
            assert all(a >= b for a, b in zip(ns, ns[1:]))
        for p_hat in (0.1, 0.5, 0.9):
            ns = [required_trials(p_hat, q) for q in p_reqs]
            assert all(a <= b for a, b in zip(ns, ns[1:]))

    def test_zero_success_probability_rejected(self):
        with pytest.raises(UnreachableThresholdError):
            required_trials(0.0, 0.95)

    def test_success_prob_sizes_the_retry_count(self):
        from types import SimpleNamespace
        recs = [SimpleNamespace(recon_rmse=v, diverged=False)
                for v in np.linspace(0.0, 1.0, 100)]
        p_hat = estimate_success_prob(recs, "recon_rmse", threshold=0.5)
        assert p_hat == pytest.approx(0.5)
        assert required_trials(p_hat, 0.95) == 5


class TestPipeline:
    def _records(self, groups):
        from types import SimpleNamespace
        recs = []
        for i, g in enumerate(groups, start=1):
            for j, v in enumerate(g, start=1):
                recs.append(SimpleNamespace(
                    init_id=i, run_id=j, recon_rmse=v, diverged=False))
        return recs

    def test_separated_groups_reject_and_fill_posthoc(self):
        report = analyze_grouped([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert report.kw_h == pytest.approx(7.2, abs=1e-9)
        assert report.rejected
        assert report.posthoc is not None and report.posthoc.shape == (3, 3)
        assert report.ph_ratio is not None
        assert report.kw_log_p == pytest.approx(-3.6, abs=1e-5)

    def test_null_groups_skip_posthoc(self):
        groups = [[1.0, 5.0, 3.0], [2.0, 4.0, 6.0]]
        report = analyze_grouped(groups)
        assert not report.rejected
        assert report.posthoc is None and report.ph_ratio is None

    def test_a_single_score_group_skips_levene_only(self):
        groups = [[1.0, 2.0, 3.0, 1.5, 2.5, 1.2, 1.1], [40.0], [50, 60, 70, 55, 65]]
        report = analyze_grouped(groups)
        assert report.levene_stat is None and report.levene_p is None
        assert (report.kw_h, report.kw_p) == kruskal_wallis(groups)
        assert report.rejected and report.posthoc.shape == (3, 3)
        with pytest.raises(ValueError):
            levene(groups)

    def test_log_p_underflow_reports_neg_inf(self):
        # H so large the chi-square tail underflows float64
        big = analyze_grouped(
            [[float(i) + j * 1e-3 for j in range(50)] for i in range(40)]
        )
        if big.kw_p == 0.0:
            assert big.kw_log_p == -math.inf

    def test_group_scores_by_init(self):
        recs = self._records([[1, 2], [3, 4], [5, 6]])
        g = group_scores(recs, "recon_rmse")
        assert g.sizes == (2, 2, 2)
        np.testing.assert_array_equal(g.groups[2], [5, 6])

    def test_all_diverged_init_drops_from_groups_but_fails_in_planner(self):
        recs = self._records([[1, 2], [3, 4], [5, 6]])
        for rec in recs[4:]:
            rec.diverged, rec.recon_rmse = True, None
        g = group_scores(recs, "recon_rmse")
        assert g.sizes == (2, 2)
        assert estimate_success_prob(recs, "recon_rmse", 10.0) == pytest.approx(4 / 6)

    def test_group_scores_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            group_scores(self._records([[1, 2], [3, 4]]), "recon_mse")

    def test_report_files(self, tmp_path):
        report = analyze_grouped([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        files = write_stat_report(report, tmp_path)
        names = {f.name for f in files}
        assert names == {"stat_report.txt", "posthoc_matrix.csv", "posthoc_long.csv"}
        text = (tmp_path / "stat_report.txt").read_text()
        kw_line = next(l for l in text.splitlines() if l.startswith("kw_h:"))
        assert float(kw_line.split(":")[1]) == pytest.approx(7.2, abs=1e-9)
        long_lines = (tmp_path / "posthoc_long.csv").read_text().splitlines()
        assert long_lines[0] == "i,j,p,significant"
        assert len(long_lines) == 1 + 9

    def test_report_without_posthoc(self, tmp_path):
        report = analyze_grouped([[1.0, 5.0, 3.0], [2.0, 4.0, 6.0]])
        files = write_stat_report(report, tmp_path)
        assert {f.name for f in files} == {"stat_report.txt"}
        assert "not run" in (tmp_path / "stat_report.txt").read_text()

    @staticmethod
    def _edge_posthoc(alpha):
        """A 7x7 p-value matrix with a zero diagonal and cells at, just
        below and just above alpha, 0, 1, the smallest subnormal, -0.0 and
        NaN, none of which the writers may format or compare differently."""
        rng = np.random.default_rng(17)
        p = rng.uniform(0.0, 1.0, (7, 7))
        edges = [alpha, np.nextafter(alpha, 0.0), np.nextafter(alpha, 1.0), 0.0,
                 1.0, 5e-324, -0.0, math.nan, 1.0 / 3.0]
        flat = rng.choice(49, len(edges), replace=False)
        p.flat[flat] = edges
        np.fill_diagonal(p, 0.0)
        return p

    @pytest.mark.parametrize("case", ["50x50-seed901", "50x50-seed911", "edges-0.05",
                                      "edges-0.5", "2x2"])
    def test_posthoc_files_are_the_per_cell_loop_byte_for_byte(self, tmp_path, case):
        if case.startswith("50x50"):
            report = analyze_grouped(stats_50x50_groups(int(case[-3:])))
            assert report.posthoc is not None
        elif case.startswith("edges"):
            alpha = float(case.split("-")[1])
            base = analyze_grouped([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
            report = replace(base, alpha=alpha, posthoc=self._edge_posthoc(alpha))
        else:
            report = analyze_grouped([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]],
                                     alpha=0.1)
            assert report.posthoc.shape == (2, 2)
        lib, ref = tmp_path / "lib", tmp_path / "ref"
        ref.mkdir()
        write_stat_report(report, lib)
        oracles.write_posthoc_files(report, ref)
        for name in ("posthoc_matrix.csv", "posthoc_long.csv"):
            assert (lib / name).read_bytes() == (ref / name).read_bytes(), name


class TestGroupedScores:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupedScores((np.array([1.0]),))
        with pytest.raises(ValueError):
            GroupedScores((np.array([1.0]), np.array([])))
        with pytest.raises(ValueError):
            GroupedScores((np.array([1.0]), np.array([np.nan])))
