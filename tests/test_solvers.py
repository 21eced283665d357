"""Sparse-coding solvers: l1 / group basis pursuit denoising and l1 error
fitting. Oracle values come from independent routes (exhaustive support
enumeration, grid scans, projected subgradient)."""

import itertools

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import OptimizeResult, linprog, minimize

from occlucode import (
    Block,
    BlockedDictionary,
    ImageVector,
    SolverConfig,
    solve_group_bpdn,
    solve_l1_bpdn,
    solve_l1_error,
    solvers,
)
from occlucode.core import FACE, normalize_columns
from occlucode.errors import DegenerateError, DimMismatchError, RankDeficientWarning
from occlucode.solvers import (
    LAD_GAP_RTOL,
    block_penalty,
    block_prox,
    l1_regression,
    lad_fit,
)

from conftest import random_dictionary


def vec(data):
    d = np.asarray(data, dtype=float)
    return ImageVector(d, (1, d.size))


# ---------------------------------------------------------------------------
# l1 BPDN


def test_l1_orthonormal_exact():
    d = BlockedDictionary(np.eye(4), (Block("all", FACE, 0, 4),))
    u = vec(d.atoms[:, 1])
    rep = solve_l1_bpdn(u, d, SolverConfig(epsilon=0.0))
    assert np.allclose(rep.coefficients.values, [0, 1, 0, 0], atol=1e-5)
    assert rep.final_residual <= 1e-5


def test_l1_zero_input(rng):
    d = random_dictionary(rng, 6, 8)
    rep = solve_l1_bpdn(vec(np.zeros(6)), d, SolverConfig(epsilon=0.05))
    assert np.array_equal(rep.coefficients.values, np.zeros(8))
    assert rep.converged


def support_oracle(A, u, eps, max_support=2):
    """Min l1-norm over every support of size <= max_support, each solved as
    an eps-constrained problem (coefficients shrink until the residual
    bound binds)."""
    n = A.shape[1]
    best_obj, best_w = np.inf, np.zeros(n)
    supports = [()]
    for k in range(1, max_support + 1):
        supports += list(itertools.combinations(range(n), k))
    for sup in supports:
        sup = list(sup)
        if not sup:
            if np.linalg.norm(u) <= eps and 0.0 < best_obj:
                best_obj, best_w = 0.0, np.zeros(n)
            continue
        As = A[:, sup]

        def obj(c):
            return np.abs(c).sum()

        def feas(c):
            return eps - np.linalg.norm(u - As @ c)

        ls, *_ = np.linalg.lstsq(As, u, rcond=None)
        if np.linalg.norm(u - As @ ls) > eps + 1e-9:
            continue  # support cannot satisfy the bound
        res = minimize(
            obj,
            ls,
            constraints=[{"type": "ineq", "fun": feas}],
            method="SLSQP",
            options={"maxiter": 300, "ftol": 1e-12},
        )
        if res.success and obj(res.x) < best_obj:
            best_obj = obj(res.x)
            best_w = np.zeros(n)
            best_w[sup] = res.x
    return best_w, best_obj


def test_l1_support_recovery_against_oracle(rng):
    d = random_dictionary(rng, 8, 12)
    noise = rng.standard_normal(8)
    noise *= 0.01 / np.linalg.norm(noise)
    u = vec(0.7 * d.atoms[:, 2] + 0.3 * d.atoms[:, 8] + noise)
    cfg = SolverConfig(epsilon=0.02, tol=1e-9, resid_lower_frac=0.999)
    rep = solve_l1_bpdn(u, d, cfg)
    w = rep.coefficients.values
    top2 = set(np.argsort(-np.abs(w))[:2])
    assert top2 == {2, 8}
    w_star, _ = support_oracle(d.atoms, u.data, 0.02)
    assert np.max(np.abs(w - w_star)) < 1e-3


def test_l1_feasibility_and_monotone_trace(rng):
    for seed in range(5):
        r = np.random.default_rng(seed)
        d = random_dictionary(r, 8, 12)
        u = vec(r.standard_normal(8) / 3.0)
        cfg = SolverConfig(epsilon=0.05)
        rep = solve_l1_bpdn(u, d, cfg)
        assert rep.final_residual <= cfg.epsilon + cfg.tol
        t = np.array(rep.objective_trace)
        assert np.all(np.diff(t) <= cfg.tol)  # monotone inner objective


def test_l1_sign_symmetry(rng):
    d = random_dictionary(rng, 8, 10)
    u = rng.standard_normal(8) / 4.0
    cfg = SolverConfig(epsilon=0.05, tol=1e-8)
    rep_pos = solve_l1_bpdn(vec(u), d, cfg)
    rep_neg = solve_l1_bpdn(vec(-u), d, cfg)
    assert rep_pos.objective == pytest.approx(rep_neg.objective, abs=1e-4)


def test_l1_report_residual_consistent(rng):
    d = random_dictionary(rng, 8, 10)
    u = vec(rng.standard_normal(8) / 4.0)
    rep = solve_l1_bpdn(u, d, SolverConfig(epsilon=0.05))
    recomputed = np.linalg.norm(u.data - d.atoms @ rep.coefficients.values)
    assert rep.final_residual == pytest.approx(recomputed, abs=1e-9)


def test_l1_dim_mismatch(rng):
    d = random_dictionary(rng, 8, 10)
    with pytest.raises(DimMismatchError):
        solve_l1_bpdn(vec(np.zeros(7)), d, SolverConfig())


# ---------------------------------------------------------------------------
# group BPDN


def test_group_inactive_block_zeroed():
    d = BlockedDictionary(
        np.eye(6), (Block("b1", FACE, 0, 3), Block("b2", FACE, 3, 6))
    )
    u = vec(np.array([0.6, 0.8, 0.0, 0.0, 0.0, 0.0]))
    rep = solve_group_bpdn(u, d, SolverConfig(epsilon=0.0, lam=1.0))
    assert np.max(np.abs(rep.coefficients.values[3:])) < 1e-8


def test_group_zero_input(rng):
    d = random_dictionary(rng, 6, 6, [("a", 3), ("b", 3)])
    rep = solve_group_bpdn(vec(np.zeros(6)), d, SolverConfig(epsilon=0.05))
    assert np.array_equal(rep.coefficients.values, np.zeros(6))


def group_objective(w, blocks, lam=1.0):
    return sum(
        (1.0 if kind == FACE else lam) * np.linalg.norm(w[sl])
        for sl, kind in blocks
    )


def projected_subgradient_oracle(A, u, blocks, eps, iters=8000):
    """High-precision reference: subgradient steps on the group norm,
    projected onto the residual ball via the closed-form shrink toward a
    feasible anchor (least-squares solution)."""
    n = A.shape[1]
    ls, *_ = np.linalg.lstsq(A, u, rcond=None)
    w = ls.copy()
    best = np.inf

    def project(w):
        # bisection along the segment toward the LS point until feasible
        r = np.linalg.norm(u - A @ w)
        if r <= eps:
            return w
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            cand = w + mid * (ls - w)
            if np.linalg.norm(u - A @ cand) <= eps:
                hi = mid
            else:
                lo = mid
        return w + hi * (ls - w)

    for t in range(1, iters + 1):
        g = np.zeros(n)
        for sl, kind in blocks:
            nrm = np.linalg.norm(w[sl])
            if nrm > 1e-12:
                g[sl] = w[sl] / nrm
        w = project(w - (0.05 / np.sqrt(t)) * g)
        obj = group_objective(w, blocks)
        if obj < best:
            best = obj
    return best


def test_group_active_block_matches_oracle(rng):
    blocks = [(slice(0, 3), FACE), (slice(3, 6), FACE), (slice(6, 9), FACE)]
    d = random_dictionary(rng, 10, 9, [("a", 3), ("b", 3), ("c", 3)])
    noise = rng.standard_normal(10)
    noise *= 0.02 / np.linalg.norm(noise)
    u_raw = d.atoms[:, 3:6] @ np.array([0.5, 0.4, 0.3]) + noise
    u = vec(u_raw)
    cfg = SolverConfig(epsilon=0.05, lam=1.0, tol=1e-9, resid_lower_frac=0.999)
    rep = solve_group_bpdn(u, d, cfg)
    w = rep.coefficients.values
    norms = [np.linalg.norm(w[sl]) for sl, _ in blocks]
    assert int(np.argmax(norms)) == 1  # generator block wins
    oracle = projected_subgradient_oracle(d.atoms, u_raw, blocks, 0.05)
    assert rep.objective <= oracle * 1.005 + 1e-9
    assert rep.objective >= oracle * 0.9  # sanity: same problem


def test_group_equals_l1_for_single_atom_blocks(rng):
    for seed in range(5):
        r = np.random.default_rng(100 + seed)
        d = random_dictionary(r, 8, 10, [(f"a{i}", 1) for i in range(10)])
        u = vec(r.standard_normal(8) / 4.0)
        cfg = SolverConfig(
            epsilon=0.05, lam=1.0, q_norm=2.0, tol=1e-9, resid_lower_frac=0.999
        )
        rep_g = solve_group_bpdn(u, d, cfg)
        rep_l = solve_l1_bpdn(u, d, cfg)
        assert rep_g.objective == pytest.approx(rep_l.objective, abs=1e-4)


def test_group_q1_is_weighted_l1(rng):
    d = random_dictionary(rng, 8, 8, [("a", 4), ("b", 4)])
    u = vec(rng.standard_normal(8) / 4.0)
    cfg = SolverConfig(epsilon=0.05, lam=1.0, q_norm=1.0)
    rep = solve_group_bpdn(u, d, cfg)
    assert rep.final_residual <= cfg.epsilon + cfg.tol


def test_group_rejects_unsupported_q():
    with pytest.raises(ValueError):
        SolverConfig(q_norm=3.0)


@pytest.mark.parametrize(
    "field", [{"max_continuation": 0}, {"resid_lower_frac": -0.1},
              {"resid_lower_frac": 1.5}]
)
def test_config_rejects_out_of_range(field):
    with pytest.raises(ValueError):
        SolverConfig(**field)


# ---------------------------------------------------------------------------
# block prox


def loop_prox(v, t, starts, weights):
    """Reference: group shrinkage one block at a time."""
    out = v.copy()
    bounds = list(starts) + [v.size]
    for b, c in enumerate(weights):
        cols = slice(bounds[b], bounds[b + 1])
        nrm = np.linalg.norm(v[cols])
        if nrm <= t * c:
            out[cols] = 0.0
        else:
            out[cols] = v[cols] * (1.0 - t * c / nrm)
    return out


def test_block_prox_matches_loop(rng):
    for _ in range(50):
        n = int(rng.integers(1, 40))
        starts = np.flatnonzero(np.r_[True, rng.random(n - 1) < 0.3])
        stops = np.append(starts[1:], n)
        weights = rng.uniform(0.2, 2.0, starts.size)
        v = rng.standard_normal(n)
        zero = rng.integers(starts.size)  # one all-zero block
        v[starts[zero] : stops[zero]] = 0.0
        t = float(rng.uniform(0.05, 1.5))
        got, got_norms = block_prox(v, t * weights, starts, stops - starts)
        assert np.allclose(got, loop_prox(v, t, starts, weights), rtol=1e-14, atol=1e-15)
        # the prox's block norms give the penalty of its output
        assert weights @ got_norms == pytest.approx(
            block_penalty(got, starts, weights), rel=1e-12, abs=1e-12)
        penalty = sum(c * np.linalg.norm(v[a:b]) for a, b, c in zip(starts, stops, weights))
        assert block_penalty(v, starts, weights) == pytest.approx(penalty, rel=1e-14)


def test_block_prox_norm_equal_to_threshold_is_zero():
    # ||(3, 4)|| = 5 = t * c exactly; the other block survives
    v = np.array([3.0, 4.0, 1.0, 0.0])
    starts = np.array([0, 2])
    weights = np.array([2.0, 1.0])
    got = block_prox(v, 2.5 * weights, starts, np.array([2, 2]))[0]
    assert np.array_equal(got[:2], [0.0, 0.0])
    assert np.array_equal(got, loop_prox(v, 2.5, starts, weights))


def test_block_prox_singletons_soft_threshold(rng):
    v = rng.standard_normal(30)
    v[:3] = 0.0
    weights = rng.uniform(0.5, 1.5, 30)
    got, got_norms = block_prox(v, 0.4 * weights, np.arange(30), np.ones(30, int))
    soft = np.sign(v) * np.maximum(np.abs(v) - 0.4 * weights, 0.0)
    assert np.allclose(got, soft, rtol=1e-14, atol=1e-16)
    assert np.allclose(got_norms, np.abs(soft), rtol=1e-14, atol=1e-16)
    assert block_penalty(v, np.arange(30), weights) == pytest.approx(
        np.abs(v) @ weights, rel=1e-14)


# ---------------------------------------------------------------------------
# penalized inner solver


def penalized_instance(rng, kind):
    """(R, u, starts, weights) for a 4-atom-block partition, singleton
    blocks, and correlated atoms (a rank-3 core plus 1e-3 noise, condition
    number ~1e4) coded in blocks."""
    m, n = 30, 24
    if kind == "ill-conditioned":
        m, n = 20, 40
        core = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
        R = normalize_columns(core + 1e-3 * rng.standard_normal((m, n)))
    else:
        R = normalize_columns(rng.standard_normal((m, n)))
    if kind == "singleton":
        starts, weights = np.arange(n), np.ones(n)
    else:
        starts, weights = np.arange(0, n, 4), rng.uniform(0.5, 1.5, n // 4)
    u = rng.standard_normal(m)
    return R, u / np.linalg.norm(u), starts, weights


def penalized_objective(R, u, mu, w, starts, weights):
    r = u - R @ w
    return 0.5 * (r @ r) + mu * block_penalty(w, starts, weights)


def plain_fista(R, u, mu, starts, weights, iters):
    """Reference: FISTA (Beck & Teboulle 2009) from w = 0 with the constant
    step 1/||R^T R||, explicit gradient, no monotone safeguard and no
    restart; returns the final iterate."""
    sizes = np.diff(starts, append=R.shape[1])
    L = np.linalg.eigvalsh(R.T @ R)[-1]
    x = y = np.zeros(R.shape[1])
    t = 1.0
    for _ in range(iters):
        x_new = block_prox(y - R.T @ (R @ y - u) / L, mu / L * weights, starts, sizes)[0]
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
    return x


def run_mfista(R, u, mu, starts, weights, w0, max_iters, tol):
    sizes = np.diff(starts, append=R.shape[1])
    step = 1.0 / np.linalg.eigvalsh(R.T @ R)[-1]
    return solvers._mfista(R, u, w0, mu, step, starts, sizes, weights, max_iters, tol)


KINDS = ["group", "singleton", "ill-conditioned"]


def _mu(R, u, starts, weights, frac):
    return frac * np.max(solvers._block_norms(R.T @ u, starts) / weights)


@pytest.mark.parametrize("kind", KINDS)
def test_mfista_carried_residual_and_monotone_trace(rng, kind):
    R, u, starts, weights = penalized_instance(rng, kind)
    for frac, max_iters in ((0.3, 7), (0.05, 200), (0.01, 5000)):
        mu = _mu(R, u, starts, weights, frac)
        w0 = 0.1 * rng.standard_normal(R.shape[1])  # a warm start
        x, r, trace, it = run_mfista(R, u, mu, starts, weights, w0, max_iters, 1e-12)
        assert np.max(np.abs(r - (u - R @ x))) <= 1e-10
        assert len(trace) == it + 1
        assert np.all(np.diff(trace) <= 0.0)  # monotone acceptance
        assert trace[-1] == pytest.approx(
            penalized_objective(R, u, mu, x, starts, weights), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_mfista_reaches_plain_fista_objective(rng, kind):
    R, u, starts, weights = penalized_instance(rng, kind)
    mu = _mu(R, u, starts, weights, 0.01)
    ref = penalized_objective(
        R, u, mu, plain_fista(R, u, mu, starts, weights, 30000), starts, weights)
    x, _, trace, it = run_mfista(
        R, u, mu, starts, weights, np.zeros(R.shape[1]), 50000, 1e-12)
    assert it < 50000  # stopped by the tolerance, not the cap
    assert abs(trace[-1] - ref) <= 1e-8 * ref


# ---------------------------------------------------------------------------
# l1 error fitting


def test_l1_error_exact_span(rng):
    d = random_dictionary(rng, 10, 3)
    x_true = rng.standard_normal(3)
    u = vec(d.atoms @ x_true)
    x, e = solve_l1_error(u, d)
    assert np.max(np.abs(e.data)) < 1e-8
    assert np.allclose(x.values, x_true, atol=1e-6)


def test_l1_error_single_column_spike():
    col = np.full(9, 1.0 / 3.0)
    d = BlockedDictionary(col[:, None], (Block("c", FACE, 0, 1),))
    u_data = col.copy()
    u_data[0] += 0.5
    x, e = solve_l1_error(vec(u_data), d)
    # grid-scan oracle over the single coefficient
    grid = np.linspace(0.5, 1.5, 2001)
    costs = [np.abs(u_data - g * col).sum() for g in grid]
    assert x.values[0] == pytest.approx(grid[int(np.argmin(costs))], abs=1e-3)
    nonzero = np.abs(e.data) > 1e-6
    assert nonzero.sum() == 1 and e.data[0] == pytest.approx(0.5, abs=1e-6)


def test_l1_error_orthogonal_input():
    d = BlockedDictionary(np.eye(6)[:, :2], (Block("c", FACE, 0, 2),))
    u_data = np.zeros(6)
    u_data[4] = 1.0
    x, e = solve_l1_error(vec(u_data), d)
    assert np.max(np.abs(x.values)) < 1e-9
    assert np.allclose(e.data, u_data)


def test_l1_error_exact_decomposition(rng):
    d = random_dictionary(rng, 12, 4)
    u = vec(rng.standard_normal(12))
    x, e = solve_l1_error(u, d)
    assert np.allclose(d.atoms @ x.values + e.data, u.data, atol=1e-8)


def test_l1_error_rank_deficient_warns():
    col = np.ones(4) / 2.0
    atoms = np.stack([col, col], axis=1)
    d = BlockedDictionary(atoms, (Block("c", FACE, 0, 2),))
    with pytest.warns(RankDeficientWarning):
        solve_l1_error(vec(np.ones(4) / 2.0), d)


def test_l1_regression_median_property(rng):
    # regressing onto the all-ones column = (near-)median fit
    A = np.ones((9, 1))
    b = rng.standard_normal(9)
    x = l1_regression(A, b)
    assert x[0] == pytest.approx(np.median(b), abs=1e-8)


# ---------------------------------------------------------------------------
# least absolute deviations: the dual LP against the primal LP


def primal_lad_oracle(A, b):
    """argmin_x ||b - A x||_1 as the primal LP over [x, e+, e-]:
    min 1'e+ + 1'e-  s.t.  A x + e+ - e- = b,  e+, e- >= 0."""
    m, h = A.shape
    c = np.concatenate([np.zeros(h), np.ones(2 * m)])
    eye = sparse.identity(m, format="csc")
    A_eq = sparse.hstack([sparse.csc_matrix(A), eye, -eye], format="csc")
    bounds = [(None, None)] * h + [(0, None)] * (2 * m)
    res = linprog(c, A_eq=A_eq, b_eq=b, bounds=bounds, method="highs")
    assert res.success, res.message
    return res.x[:h]


def _lad_instance(rng, kind):
    if kind == "720x4":
        A = rng.standard_normal((720, 4))
    elif kind == "720x20":
        A = rng.standard_normal((720, 20))
    elif kind == "rank-deficient":
        base = rng.standard_normal((200, 4))
        A = np.hstack([base, base[:, :2] @ rng.standard_normal((2, 3))])
    else:  # fewer rows than columns: b is fitted exactly
        A = rng.standard_normal((5, 8))
    return A, rng.standard_normal(A.shape[0])


@pytest.mark.parametrize(
    "kind", ["720x4", "720x20", "rank-deficient", "wide"])
def test_lad_dual_matches_primal_oracle(rng, kind):
    A, b = _lad_instance(rng, kind)
    fit = lad_fit(A, b)
    oracle = np.abs(b - A @ primal_lad_oracle(A, b)).sum()
    assert abs(fit.primal - oracle) <= 1e-9 * max(1.0, oracle)
    assert np.array_equal(l1_regression(A, b), fit.x)
    # the certificate: y is dual feasible, and the objectives are those of
    # x and y and close the gap
    assert np.max(np.abs(fit.y)) <= 1.0 + 1e-9
    assert np.max(np.abs(A.T @ fit.y)) <= 1e-9 * max(1.0, np.abs(A).max())
    assert fit.primal == pytest.approx(np.abs(b - A @ fit.x).sum(), rel=1e-15)
    assert fit.dual == pytest.approx(b @ fit.y, rel=1e-15)
    assert abs(fit.gap) <= LAD_GAP_RTOL * max(1.0, fit.primal)


def test_lad_wide_fits_exactly(rng):
    A, b = _lad_instance(rng, "wide")
    fit = lad_fit(A, b)
    assert np.allclose(A @ fit.x, b, atol=1e-9)
    assert fit.dual == pytest.approx(0.0, abs=1e-12)


def test_lad_failed_lp_raises_degenerate(rng, monkeypatch):
    def failing(*args, **kwargs):
        return OptimizeResult(success=False, status=4, message="numerical difficulties")

    monkeypatch.setattr(solvers, "linprog", failing)
    A, b = _lad_instance(rng, "720x4")
    with pytest.raises(DegenerateError, match="LP failed"):
        l1_regression(A, b)
    with pytest.raises(DegenerateError):
        solve_l1_error(vec(b[:12]), random_dictionary(rng, 12, 3))


def test_lad_gap_above_bound_raises_degenerate(rng, monkeypatch):
    def off_by_a_bit(*args, **kwargs):
        res = linprog(*args, **kwargs)
        res.eqlin.marginals = res.eqlin.marginals + 1e-6  # x no longer optimal
        return res

    monkeypatch.setattr(solvers, "linprog", off_by_a_bit)
    A, b = _lad_instance(rng, "720x4")
    with pytest.raises(DegenerateError, match="duality gap"):
        l1_regression(A, b)
