"""Correctness checks made apart from unmixlab.

Every check recomputes what it compares against, from the inputs or from a
property the method must have, and raises CheckFailed when the program's
output disagrees. Stored copies of earlier outputs are never used.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
SUM_TO_ONE_GUARD = 1e-12  # the documented sum-to-one denominator guard
# A column whose pre-normalization sum s is small sums to s / (s + guard),
# not to 1; the package allows a column-sum drift of 1e-6 (its simplex
# acceptance criterion and lmm.ABUNDANCE_SUM_TOL).
SIMPLEX_TOL = 1e-6


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# single trained cells
# ---------------------------------------------------------------------------

def basic_forward(params: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode pass of the basic architecture from its named parameters:
    linear, ReLU, linear, ReLU, sum-to-one, bias-free linear decoder."""
    h = np.maximum(params["enc0.weight"] @ x + params["enc0.bias"][:, None], 0.0)
    z = np.maximum(params["enc2.weight"] @ h + params["enc2.bias"][:, None], 0.0)
    s = z.sum(axis=0, keepdims=True)
    a = np.where(s == 0.0, 1.0 / z.shape[0], z / (s + SUM_TO_ONE_GUARD))
    return params["dec.weight"] @ a, a


def rmse(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.sqrt(np.mean((x - y) ** 2)))


def angle_matrix(w_hat: np.ndarray, w_ref: np.ndarray) -> np.ndarray:
    """cost[i, j]: spectral angle between estimated column i and reference j."""
    u = w_hat / np.linalg.norm(w_hat, axis=0)
    v = w_ref / np.linalg.norm(w_ref, axis=0)
    return np.arccos(np.clip(u.T @ v, -1.0, 1.0))


def check_permutation(perm, w_hat: np.ndarray, w_ref: np.ndarray) -> None:
    """perm[j] names the estimated column matched to reference column j; it
    must be the minimum-total-angle assignment. A different permutation is
    accepted only when it ties the optimum (equal total angle)."""
    from scipy.optimize import linear_sum_assignment

    cost = angle_matrix(w_hat, w_ref)
    rows, cols = linear_sum_assignment(cost)
    best = np.empty(cost.shape[1], dtype=int)
    best[cols] = rows
    require(perm is not None, "no permutation recorded")
    perm = tuple(int(p) for p in perm)
    require(sorted(perm) == list(range(cost.shape[1])), f"{perm} is not a permutation")
    if perm != tuple(best):
        got = cost[list(perm), range(cost.shape[1])].sum()
        opt = cost[rows, cols].sum()
        require(abs(got - opt) <= 1e-12, f"permutation {perm} costs {got}, optimum {tuple(best)} costs {opt}")


def check_basic_cell(record, params: dict, init_params: dict, x: np.ndarray,
                    abundances: np.ndarray, w_ref: np.ndarray) -> None:
    """A trained basic cell against an independent forward pass."""
    require(not record.diverged, "cell diverged")
    recon, a_own = basic_forward(params, x)
    require(_close(rmse(x, recon), record.recon_rmse),
             f"recon_rmse {record.recon_rmse} != independent {rmse(x, recon)}")
    require(bool(np.all(abundances >= 0.0)), "negative abundance")
    require(bool(np.all(np.abs(abundances.sum(axis=0) - 1.0) <= SIMPLEX_TOL)),
             "abundance column does not sum to 1")
    require(bool(np.allclose(abundances, a_own, rtol=1e-9, atol=1e-12)),
             "abundances differ from the independent forward pass")
    check_permutation(record.permutation, params["dec.weight"], w_ref)
    init_rmse = rmse(x, basic_forward(init_params, x)[0])
    require(record.recon_rmse < init_rmse,
             f"training did not lower recon_rmse ({record.recon_rmse} >= {init_rmse})")


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def steps_per_cell(epochs: int, pixels: int, batch_size: int) -> int:
    """Optimizer steps of one basic-architecture cell: every mini-batch,
    the short last one included, of every epoch."""
    return epochs * math.ceil(pixels / batch_size)


def trace_rows(steps: int, layers: int, dense: int = 1000, every: int = 100) -> int:
    """Data rows of a gradient trace: iterations 1..dense, then every 100th."""
    logged = min(steps, dense) + max(0, steps // every - dense // every)
    return logged * layers


def check_grid_records(records, n_inits: int, runs: int) -> None:
    """N*k records in (i, j) order; checksums shared exactly within an init."""
    cells = [(r.init_id, r.run_id) for r in records]
    want = [(i, j) for i in range(1, n_inits + 1) for j in range(1, runs + 1)]
    require(cells == want, f"grid cells {cells} are not {want}")
    for a in records:
        for b in records:
            same_init = a.init_id == b.init_id
            require((a.init_checksum == b.init_checksum) == same_init,
                     f"init checksum sharing wrong for cells {a.init_id},{a.run_id} "
                     f"and {b.init_id},{b.run_id}")


def read_record_lines(path) -> tuple[dict, list[str]]:
    """Metadata and record lines of a records.jsonl, with its count checked."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    require(len(lines) >= 1, f"{path} is empty")
    meta = json.loads(lines[0])
    body = lines[1:]
    require(meta.get("count") == len(body),
             f"{path} holds {len(body)} records, metadata says {meta.get('count')}")
    return meta, body


def count_trace_rows(path) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        require(next(reader, None) == ["iteration", "layer", "mean", "std"],
                 f"{path} has a wrong header")
        return sum(1 for _ in reader)


def check_grid_dir(out_dir, records_type, n_inits: int, runs: int,
                   steps: int, layers: int) -> list:
    """records.jsonl and the trace CSVs written by one grid."""
    out = Path(out_dir)
    _, body = read_record_lines(out / "records.jsonl")
    records = [records_type.from_json(line) for line in body]
    check_grid_records(records, n_inits, runs)
    for rec in records:
        require(rec.trace_file is not None, "record lacks its trace file")
        rows = count_trace_rows(out / rec.trace_file)
        want = trace_rows(steps, layers)
        ok = rows <= want if rec.diverged else rows == want
        require(ok, f"{rec.trace_file} holds {rows} rows, expected {want}")
    return records


# ---------------------------------------------------------------------------
# stability analysis
# ---------------------------------------------------------------------------

def read_stat_report(path) -> dict:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def check_stat_report(report: dict, groups: list[np.ndarray]) -> None:
    """H, its chi-square p-value and Levene's W against scipy.stats."""
    from scipy import stats as sps

    h, p = sps.kruskal(*groups)
    w, _ = sps.levene(*groups, center="mean")
    for key, want in (("kw_h", h), ("kw_p", p), ("levene_stat", w)):
        got = float(report[key])
        require(_close(got, float(want)), f"{key} {got} != scipy {want}")


def check_monotone_invariance(kruskal_wallis, groups: list[np.ndarray], h: float) -> None:
    """H depends on ranks only, so a strictly increasing map keeps it."""
    moved = [np.exp(3.0 * g) + g for g in groups]
    h_moved, _ = kruskal_wallis(moved)
    require(_close(h_moved, h, 1e-12), f"H {h} became {h_moved} under a monotone map")


def check_posthoc_matrix(path, n_groups: int) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        mat = np.array([[float(v) for v in row] for row in csv.reader(fh)])
    require(mat.shape == (n_groups, n_groups), f"post-hoc matrix shape {mat.shape}")
    require(bool(np.array_equal(mat, mat.T)), "post-hoc matrix is not symmetric")
    require(bool(np.all(np.diag(mat) == 1.0)), "post-hoc diagonal is not 1")
    require(bool(np.all((mat >= 0.0) & (mat <= 1.0))), "post-hoc entry outside [0, 1]")


def check_midranks(ranks: np.ndarray) -> None:
    n = ranks.size
    require(float(ranks.sum()) == n * (n + 1) / 2.0,
             f"midranks sum {ranks.sum()} != n(n+1)/2 = {n * (n + 1) / 2.0}")


def check_trials(path, scores: np.ndarray, confidence: float) -> None:
    """Each reachable row: p_hat is the share of runs below the threshold
    (diverged runs count as failures) and n_req is the smallest n with
    1 - (1 - p_hat)^n >= confidence."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) > 0, "trials.csv holds no rows")
    for row in rows:
        t, p_hat = float(row["threshold"]), float(row["p_hat"])
        require(p_hat == float(np.mean(scores < t)),
                 f"p_hat {p_hat} at threshold {t} != {np.mean(scores < t)}")
        if row["reachable"] != "True":
            require(p_hat == 0.0, f"threshold {t} marked unreachable at p_hat {p_hat}")
            continue
        n = int(row["n_req"])
        require(n >= 1, f"n_req {n} < 1")
        require(1.0 - (1.0 - p_hat) ** n >= confidence,
                 f"n_req {n} misses confidence {confidence} at p_hat {p_hat}")
        require(n == 1 or 1.0 - (1.0 - p_hat) ** (n - 1) < confidence,
                 f"n_req {n} is not the smallest at p_hat {p_hat}")
