"""Acceptance gate: one pass/fail line per criterion, budgets enforced.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they print. Each test measures its own wall time against the
criterion's budget. Criterion 7 needs the real Samson bundle and is skipped
unless UNMIXLAB_SAMSON_BUNDLE points at it.
"""

import copy
import itertools
import math
import os
import time

import numpy as np
import pytest

import unmixlab as ul
from unmixlab import nn
from unmixlab.harness import ExperimentConfig, GradientTrace, grid_seeds, train_once
from unmixlab.metrics import mse_loss, sad_loss
from unmixlab.stats import _kw_statistic


def _report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {verdict} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness across layer kinds and architectures
# ---------------------------------------------------------------------------

def _net_gradcheck(net, x, target, loss_fn, seed, sample, rng):
    recon, _, cache = nn.forward(net, x, mode=nn.TRAIN, seed=seed)
    _, loss_grad = loss_fn(target, recon)
    grads = nn.backward(net, cache, loss_grad)
    worst = 0.0
    for name, arr in net.named_parameters().items():
        flat = arr.ravel()
        ga = grads[name].ravel()
        idxs = (
            rng.choice(flat.size, sample, replace=False)
            if flat.size > sample else np.arange(flat.size)
        )
        for i in idxs:
            probe = copy.deepcopy(net)
            pflat = probe.named_parameters()[name].ravel()
            orig = pflat[i]
            h = 1e-5
            pflat[i] = orig + h
            vp = loss_fn(target, nn.forward(probe, x, mode=nn.TRAIN, seed=seed)[0])[0]
            pflat[i] = orig - h
            vm = loss_fn(target, nn.forward(probe, x, mode=nn.TRAIN, seed=seed)[0])[0]
            fd = (vp - vm) / (2 * h)
            denom = max(abs(fd), abs(ga[i]), 1e-3)
            worst = max(worst, abs(fd - ga[i]) / denom)
            assert abs(fd - ga[i]) <= 1e-8 + 1e-5 * max(abs(fd), abs(ga[i])), (
                f"{name}[{i}]: analytic {ga[i]:.6e} vs fd {fd:.6e}"
            )
    return worst


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    cases = [
        ("original", 8, 2, {"gd_rate": 0.1}),
        ("original", 14, 3, {"gd_rate": 0.0}),
        ("original", 20, 4, {"gd_rate": 0.2}),
        ("basic", 8, 2, {"n1": 3}),
        ("basic", 14, 3, {"n1": 4}),
        ("basic", 20, 4, {"n1": 5}),
    ]
    for arch, bands, latent, kwargs in cases:
        net = nn.build_network(arch, bands, latent, **kwargs)
        nn.initialize_network(net, "xgu", seed=bands * 7 + latent)
        x = rng.uniform(0.1, 0.9, (bands, 4))
        target = rng.uniform(0.1, 0.9, (bands, 4))
        loss_fn = mse_loss if bands % 2 == 0 else sad_loss
        worst = max(worst, _net_gradcheck(net, x, target, loss_fn, seed=3,
                                          sample=12, rng=rng))
    # isolated layer kinds, including both losses through a linear head
    for loss_fn in (mse_loss, sad_loss):
        net = nn.build_network("basic", 10, 3, n1=4)
        nn.initialize_network(net, "khn", seed=5)
        x = rng.uniform(0.1, 0.9, (10, 4))
        target = rng.uniform(0.1, 0.9, (10, 4))
        worst = max(worst, _net_gradcheck(net, x, target, loss_fn, seed=1,
                                          sample=12, rng=rng))
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 30.0,
            f"analytic vs central differences, worst rel err {worst:.2e}, "
            f"{elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# criterion 2: simplex constraint over 1000 random networks
# ---------------------------------------------------------------------------

def test_criterion_2_constraint_enforcement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    schemes = ("khn", "khu", "xgn", "xgu")
    worst_neg = 0.0
    worst_sum = 0.0
    for trial in range(1000):
        arch = "original" if trial % 2 == 0 else "basic"
        latent = int(rng.integers(2, 5))
        bands = int(rng.integers(latent + 2, 41))
        kwargs = (
            {"gd_rate": float(rng.choice([0.0, 0.1, 0.3]))}
            if arch == "original" else {"n1": int(rng.integers(2, 8))}
        )
        net = nn.build_network(arch, bands, latent, **kwargs)
        nn.initialize_network(net, schemes[trial % 4], seed=trial)
        b_s = int(rng.integers(2, 9))
        x = rng.uniform(0, 1, (bands, b_s)) * float(rng.uniform(0.5, 20.0))
        mode = nn.TRAIN if trial % 3 == 0 else nn.EVAL
        _, ab, _ = nn.forward(net, x, mode=mode, seed=trial)
        worst_neg = min(worst_neg, float(ab.min()))
        worst_sum = max(worst_sum, float(np.max(np.abs(ab.sum(axis=0) - 1.0))))
    ok = worst_neg >= -1e-12 and worst_sum <= 1e-6
    _report(2, ok,
            f"1000 random networks: min entry {worst_neg:.2e} (>= -1e-12), "
            f"worst column-sum drift {worst_sum:.2e} (<= 1e-6), "
            f"{time.perf_counter() - t0:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: statistics oracle
# ---------------------------------------------------------------------------

def _exhaustive_kw_p(groups):
    pooled = np.concatenate([np.asarray(g, dtype=float) for g in groups])
    sizes = [len(g) for g in groups]
    h_obs = _kw_statistic(pooled, sizes)
    n = pooled.size
    hits = total = 0

    def assign(remaining, sizes_left):
        if not sizes_left:
            yield []
            return
        first, rest = sizes_left[0], sizes_left[1:]
        for combo in itertools.combinations(remaining, first):
            leftover = [i for i in remaining if i not in combo]
            for tail in assign(leftover, rest):
                yield [list(combo)] + tail

    for parts in assign(list(range(n)), sizes):
        values = np.concatenate([pooled[p] for p in parts])
        if _kw_statistic(values, sizes) >= h_obs - 1e-12:
            hits += 1
        total += 1
    return hits / total


def _mc_conover_reference(groups, n_shuffles, seed):
    pooled = np.concatenate([np.asarray(g, float) for g in groups])
    sizes = [len(g) for g in groups]
    n = pooled.size
    n_groups = len(sizes)

    def pair_stats(values):
        ranks = ul.midranks(values)
        h = _kw_statistic(values, sizes)
        rbar = []
        start = 0
        for sz in sizes:
            rbar.append(ranks[start:start + sz].mean())
            start += sz
        s2 = (np.sum(ranks**2) - n * (n + 1) ** 2 / 4) / (n - 1)
        factor = s2 * (n - 1 - h) / (n - n_groups)
        return {
            (i, j): (rbar[i] - rbar[j])
            / math.sqrt(max(factor, 1e-300) * (1 / sizes[i] + 1 / sizes[j]))
            for i in range(n_groups) for j in range(i + 1, n_groups)
        }

    obs = pair_stats(pooled)
    rng = np.random.default_rng(seed)
    hits = {k: 0 for k in obs}
    work = pooled.copy()
    for _ in range(n_shuffles):
        rng.shuffle(work)
        st = pair_stats(work)
        for k in obs:
            if abs(st[k]) >= abs(obs[k]) - 1e-12:
                hits[k] += 1
    return {k: (hits[k] + 1) / (n_shuffles + 1) for k in obs}


def test_criterion_3_statistics_oracle():
    t0 = time.perf_counter()
    # hand-computed reference
    h, p = ul.kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert abs(h - 7.2) <= 1e-9
    assert abs(p - 0.0273237) <= 1e-7

    # small instances against exhaustive enumeration
    small = [
        [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]],
        [[1.0, 2.0, 7.0], [3.0, 8.0], [4.0, 6.0, 5.0]],
        [[0.3, 1.2, 0.8], [0.9, 1.5, 0.1], [1.1, 0.4]],
    ]
    worst_kw = 0.0
    for groups in small:
        _, p_mc = ul.kruskal_wallis(groups, method="permutation",
                                    n_resamples=40000, seed=3)
        worst_kw = max(worst_kw, abs(p_mc - _exhaustive_kw_p(groups)))
    assert worst_kw < 0.02

    # post-hoc p-values against a 1e5-shuffle permutation reference
    rng = np.random.default_rng(10)
    groups = [rng.normal(0.0, 1.0, 8), rng.normal(1.5, 1.0, 8),
              rng.normal(0.6, 1.0, 8)]
    h = _kw_statistic(np.concatenate(groups), [8, 8, 8])
    pm = ul.conover_iman(groups, h=h)
    ref = _mc_conover_reference(groups, n_shuffles=100_000, seed=11)
    worst_ci = max(abs(pm[i, j] - pr) for (i, j), pr in ref.items())
    assert worst_ci < 0.03

    # under-H0 rejection rate over 2000 seeded simulations
    rng = np.random.default_rng(5)
    rejections = 0
    for _ in range(2000):
        sim = rng.normal(size=(5, 10))
        _, p_sim = ul.kruskal_wallis(list(sim))
        rejections += p_sim < 0.05
    rate = rejections / 2000
    assert 0.03 <= rate <= 0.07

    elapsed = time.perf_counter() - t0
    _report(3, elapsed < 120.0,
            f"H=7.2, p=exp(-3.6); KW perm diff {worst_kw:.3f} (<0.02); "
            f"post-hoc diff {worst_ci:.3f} (<0.03); H0 rejection rate "
            f"{rate:.3f} in [0.03,0.07]; {elapsed:.1f}s (< 120s)")


# ---------------------------------------------------------------------------
# criterion 4: retry planner
# ---------------------------------------------------------------------------

def test_criterion_4_retry_planner():
    assert ul.required_trials(0.5, 0.95) == 5
    assert ul.required_trials(0.259, 0.95) == 10
    p_hats = np.linspace(0.02, 1.0, 50)
    p_reqs = np.linspace(0.5, 0.995, 40)
    mono_hat = all(
        ul.required_trials(a, 0.9) >= ul.required_trials(b, 0.9)
        for a, b in zip(p_hats, p_hats[1:])
    )
    mono_req = all(
        ul.required_trials(0.3, a) <= ul.required_trials(0.3, b)
        for a, b in zip(p_reqs, p_reqs[1:])
    )
    _report(4, mono_hat and mono_req,
            "n_req(0.5, 0.95)=5, n_req(0.259, 0.95)=10, monotone over "
            "50x40 grid")


# ---------------------------------------------------------------------------
# criteria 5 and 9: desk-scale unmixing and its gradient traces
# ---------------------------------------------------------------------------

DESK_RETRIES = 10
DESK_CONFIG = ExperimentConfig(
    experiment_id="desk",
    architecture="basic",
    loss="mse",
    batch_size=100,
    learning_rate=0.005,
    epochs=3000,
    init_scheme="xgn",
    n_inits=1,
    runs_per_init=1,
    n1=10,
)


@pytest.fixture(scope="module")
def desk_runs():
    """Ten seeded retries on the zero-noise desk scene, traces kept."""
    w = ul.generate_endmembers(50, 3, smoothness=7, seed=101)
    a = ul.sample_abundances(3, 2000, pure_fraction=0.10, seed=102)
    data = ul.synthesize(w, a, ul.NoiseSpec(0.0), seed=103, name="desk")
    t0 = time.perf_counter()
    runs = []
    for retry in range(1, DESK_RETRIES + 1):
        init_seed, run_seed = grid_seeds(42, retry, 1)
        _, record, trace = train_once(DESK_CONFIG, data, init_seed, run_seed)
        runs.append((record, trace))
    return runs, time.perf_counter() - t0


@pytest.mark.slow
def test_criterion_5_desk_scale_unmixing(desk_runs):
    runs, elapsed = desk_runs
    scored = [r for r, _ in runs if not r.diverged]
    best = min(scored, key=lambda r: r.abundance_rmse)
    ok = (best.abundance_rmse < 0.1 and best.endmember_sad < 0.15
          and elapsed < 300.0)
    _report(5, ok,
            f"best of {DESK_RETRIES} retries: abundance RMSE "
            f"{best.abundance_rmse:.4f} (< 0.1), endmember SAD "
            f"{best.endmember_sad:.4f} (< 0.15 rad), {elapsed:.0f}s (< 300s)")


@pytest.mark.slow
def test_criterion_9_gradient_trace_diagnostics(desk_runs, tmp_path):
    runs, _ = desk_runs
    scored = [(r, t) for r, t in runs if not r.diverged]
    worst_record, worst_trace = max(scored, key=lambda rt: rt[0].abundance_rmse)
    dense = [it for it in worst_trace.iterations if it <= 1000]
    path = tmp_path / "worst_trace.csv"
    worst_trace.to_csv(path)
    header = path.read_text().splitlines()[0]
    loaded = GradientTrace.from_csv(path)
    ok = (
        len(dense) >= 1000
        and header == "iteration,layer,mean,std"
        and loaded.layers == worst_trace.layers
        and loaded.iterations == worst_trace.iterations
        and all(len(m) == len(worst_trace.layers) for m in loaded.means)
        and all(np.isfinite(m).all() for m in np.asarray(loaded.means))
    )
    _report(9, ok,
            f"worst-of-grid model (abundance RMSE "
            f"{worst_record.abundance_rmse:.3f}): {len(dense)} dense "
            f"iterations logged for {len(worst_trace.layers)} layers, "
            "CSV schema validates")


# ---------------------------------------------------------------------------
# criterion 6: initialization dependence on a Samson-shaped grid
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_stability_phenomenon():
    t0 = time.perf_counter()
    w = ul.generate_endmembers(156, 3, smoothness=9, seed=11)
    a = ul.sample_abundances(3, 95 * 95, pure_fraction=0.1, seed=12)
    data = ul.synthesize(w, a, ul.NoiseSpec(0.005), seed=13,
                         width=95, height=95, name="samson-shaped")
    rejections = 0
    p_values = []
    for master_seed in range(1, 6):
        config = ExperimentConfig(
            experiment_id=f"stab{master_seed}", architecture="basic",
            loss="mse", batch_size=256, learning_rate=0.005, epochs=8,
            init_scheme="khu", n_inits=10, runs_per_init=10,
            master_seed=master_seed,
        )
        records = ul.run_experiment(config, data)
        grouped = ul.group_scores(records, "recon_rmse")
        _, p = ul.kruskal_wallis(grouped)
        p_values.append(p)
        rejections += p < 0.05
    elapsed = time.perf_counter() - t0
    ok = rejections >= 4 and elapsed < 1800.0
    _report(6, ok,
            f"KW rejected in {rejections}/5 master seeds "
            f"(p values {['%.1e' % p for p in p_values]}), "
            f"{elapsed:.0f}s (< 1800s)")


# ---------------------------------------------------------------------------
# criterion 7: optional check against the real Samson image
# ---------------------------------------------------------------------------

@pytest.mark.skipif(
    "UNMIXLAB_SAMSON_BUNDLE" not in os.environ,
    reason="set UNMIXLAB_SAMSON_BUNDLE to a real Samson bundle to enable",
)
def test_criterion_7_real_samson_if_available():
    data = ul.load_bundle(os.environ["UNMIXLAB_SAMSON_BUNDLE"])
    assert data.ground_truth is not None, "bundle needs ground truth"
    config = ExperimentConfig(
        experiment_id="samson-exp3", architecture="original", loss="sad",
        batch_size=20, learning_rate=0.01, gd_rate=0.1, epochs=30,
        init_scheme="xgu", n_inits=5, runs_per_init=5, master_seed=3,
        scale=True,
    )
    records = ul.run_experiment(config, data)
    summary = ul.aggregate_errors(records)
    _report(7, summary.abundance_mean <= 0.20,
            f"real Samson 5x5 grid: mean abundance RMSE "
            f"{summary.abundance_mean:.3f} (<= 0.20)")


# ---------------------------------------------------------------------------
# criterion 8: byte-level determinism of the record file
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    w = ul.generate_endmembers(16, 2, smoothness=3, seed=21)
    a = ul.sample_abundances(2, 60, pure_fraction=0.2, seed=22)
    data = ul.synthesize(w, a, seed=23)
    config = ExperimentConfig(
        experiment_id="det", architecture="basic", loss="mse", batch_size=15,
        learning_rate=0.01, epochs=10, init_scheme="khu", n_inits=2,
        runs_per_init=2, master_seed=77, n1=4,
    )
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        ul.run_experiment(config, data, out_dir=d)
    rec1 = (dirs[0] / "records.jsonl").read_bytes().split(b"\n")
    rec2 = (dirs[1] / "records.jsonl").read_bytes().split(b"\n")
    records_equal = rec1[1:] == rec2[1:]
    traces_equal = all(
        (dirs[0] / p.name).read_bytes() == (dirs[1] / p.name).read_bytes()
        for p in dirs[0].glob("trace_*.csv")
    )
    n_traces = len(list(dirs[0].glob("trace_*.csv")))
    _report(8, records_equal and traces_equal and n_traces == 4,
            "record lines and all 4 gradient traces byte-identical across "
            "reruns (metadata line excluded)")
