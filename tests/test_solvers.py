"""Sparse-coding solvers: l1 / group basis pursuit denoising and l1 error
fitting. Oracle values come from independent routes (exhaustive support
enumeration, grid scans, projected subgradient, FISTA on the penalized
problem, certificates recomputed from the code and the dual point)."""

import itertools

import numpy as np
import pytest
from scipy import linalg, sparse
from scipy.optimize import linprog, minimize

from occlucode import (
    Block,
    BlockedDictionary,
    ImageVector,
    SolverConfig,
    solve_group_bpdn,
    solve_l1_bpdn,
    solvers,
    with_identity_block,
)
from occlucode.core import FACE, OCCLUSION, normalize_columns
from occlucode.errors import DegenerateError, DimMismatchError
from occlucode.solvers import (
    LAD_GAP_RTOL,
    block_penalty,
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
    cfg = SolverConfig(epsilon=0.02, tol=1e-9)
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
        assert rep.converged and rep.final_residual <= cfg.epsilon * (1 + 1e-6)
        # the gap after 1, 2, ... Newton steps: every iterate is feasible, so
        # each step shrinks it, and the last one is the certified gap
        gaps = [solve_l1_bpdn(u, d, SolverConfig(epsilon=0.05, max_iters=k)).gap
                for k in range(1, rep.iterations + 1)]
        assert gaps[-1] == rep.gap <= cfg.tol
        assert np.all(np.diff(gaps) < 0)


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


def test_l1_and_group_reject_a_dictionary_without_blocks():
    d = BlockedDictionary(np.zeros((8, 0)), ())
    for solve in (solve_l1_bpdn, solve_group_bpdn):
        with pytest.raises(DimMismatchError, match="no blocks"):
            solve(vec(np.ones(8) / np.sqrt(8)), d, SolverConfig())


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
    cfg = SolverConfig(epsilon=0.05, lam=1.0, tol=1e-9)
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
        cfg = SolverConfig(epsilon=0.05, lam=1.0, q_norm=2.0, tol=1e-9)
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
    "field", [{"epsilon": -0.1}, {"lam": 0.0}, {"max_iters": 0}, {"tol": 0.0}]
)
def test_config_rejects_out_of_range(field):
    with pytest.raises(ValueError):
        SolverConfig(**field)


# ---------------------------------------------------------------------------
# block prox: the penalized-FISTA oracle's prox, and block_penalty


def block_prox(v, thresholds, starts, sizes):
    """Shrink each block's norm by its threshold; returns the shrunk vector
    and its block norms. With thresholds t * c_b this is the prox of
    t * block_penalty; on singleton blocks it is soft thresholding."""
    norms = np.maximum(np.sqrt(np.add.reduceat(v * v, starts)), 1e-300)
    scale = np.maximum(0.0, 1.0 - thresholds / norms)
    return v * np.repeat(scale, sizes), norms * scale


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
    weights = np.array([2.0, 0.2])
    got = block_prox(v, 2.5 * weights, starts, np.array([2, 2]))[0]
    assert np.array_equal(got[:2], [0.0, 0.0])
    assert got[2] > 0.0
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
# the interior point


def instance(rng, kind):
    """(R, u, starts, weights) for a 4-atom-block partition, singleton
    blocks, and correlated atoms (a rank-3 core plus 1e-3 noise, condition
    number ~1e4) coded in blocks. u is a unit vector near the span of the
    first 8 atoms; R has full row rank, so its residual floor is 0."""
    m, n = 20, 40
    if kind == "ill-conditioned":
        core = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
        R = normalize_columns(core + 1e-3 * rng.standard_normal((m, n)))
    else:
        R = normalize_columns(rng.standard_normal((m, n)))
    if kind == "singleton":
        starts, weights = np.arange(n), np.ones(n)
    else:
        starts, weights = np.arange(0, n, 4), rng.uniform(0.5, 1.5, n // 4)
    u = R[:, :8] @ rng.standard_normal(8) + 0.02 * rng.standard_normal(m)
    return R, u / np.linalg.norm(u), starts, weights


def blocked(R, starts):
    """A dictionary whose blocks are the partition: weights then follow from
    lam = 1 and q = 2, or from singleton starts."""
    stops = np.append(starts[1:], R.shape[1])
    return BlockedDictionary(R, tuple(Block(f"b{i}", FACE, a, b)
                                      for i, (a, b) in enumerate(zip(starts, stops))))


def solve_partition(R, us, starts, weights, cfg):
    """The interior point's reports on a weighted partition, by the module's
    own entry point for it."""
    return solvers._solve_bpdn(list(us), blocked(R, starts), cfg, starts, weights)


def plain_fista(R, u, mu, starts, weights, iters):
    """Reference: FISTA (Beck & Teboulle 2009) on the penalized problem
    mu * sum_b c_b ||w_b|| + 0.5 ||u - R w||^2 from w = 0, with the constant
    step 1/||R^T R|| and block_prox as the prox."""
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


KINDS = ["group", "singleton", "ill-conditioned"]


@pytest.mark.parametrize("kind", KINDS)
def test_interior_point_matches_penalized_fista(rng, kind):
    # at the constrained optimum, R_b^T theta lies in c_b times the
    # subdifferential of ||w_b|| and theta = (||theta|| / eps) r, so the code
    # also minimizes the penalized problem at mu = eps / ||theta||
    R, u, starts, weights = instance(rng, kind)
    eps = 0.2
    (rep,) = solve_partition(R, [u], starts, weights, SolverConfig(epsilon=eps, tol=1e-10))
    assert rep.converged
    mu = eps / np.linalg.norm(rep.dual)

    def penalized(w):
        r = u - R @ w
        return 0.5 * (r @ r) + mu * block_penalty(w, starts, weights)

    ref = penalized(plain_fista(R, u, mu, starts, weights, 20000))
    assert abs(penalized(rep.coefficients.values) - ref) <= 1e-8 * ref


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("max_iters", [6, 3000])
def test_mfista_many_matches_mfista_per_column(rng, kind, max_iters):
    # the name is kept from the batched MFISTA coder this test first checked;
    # it now checks the batched interior point against one-probe solves
    R, u, starts, weights = instance(rng, kind)
    U = rng.standard_normal((R.shape[0], 5))
    U[:, 0] = u
    U *= rng.uniform(0.5, 2.0, 5) / np.linalg.norm(U, axis=0)
    cfg = SolverConfig(epsilon=0.3, max_iters=max_iters)
    reports = solve_partition(R, U.T, starts, weights, cfg)
    for j, rep in enumerate(reports):
        (ref,) = solve_partition(R, U[:, j:j + 1].T, starts, weights, cfg)
        assert (rep.iterations, rep.status) == (ref.iterations, ref.status)
        assert np.max(np.abs(rep.coefficients.values - ref.coefficients.values)) <= 1e-12
        assert np.max(np.abs(rep.dual - ref.dual)) <= 1e-12
    statuses = {rep.status for rep in reports}
    assert statuses == ({solvers.MAX_ITERS} if max_iters == 6 else {solvers.CONVERGED})
    if max_iters == 3000:  # every vector stops at its own step
        assert len({rep.iterations for rep in reports}) > 1


def dense_newton_matrix(R, sc, starts, j):
    """Vector j's K = W_r^2 + [0 + R E R^T], assembled densely: W_r^2 =
    eta_r^2 (2 wb_r wb_r^T - J) of the residual cone and the block-diagonal E
    with E_b = eta_b^2 (I + 2 wb_b wb_b^T)."""
    m, n = R.shape
    nb = len(starts)
    E = np.zeros((n, n))
    for b, (lo, hi) in enumerate(zip(starts, np.append(starts[1:], n))):
        wb = sc.w1[lo:hi, j]
        E[lo:hi, lo:hi] = sc.eta[b, j] ** 2 * (np.eye(hi - lo) + 2.0 * np.outer(wb, wb))
    wr = np.r_[sc.w0[nb, j], sc.w1[n:, j]]
    K = sc.eta[nb, j] ** 2 * (2.0 * np.outer(wr, wr) - np.diag(np.r_[1.0, -np.ones(m)]))
    K[1:, 1:] += R @ E @ R.T
    return K


@pytest.mark.parametrize("kind", ["group", "singleton", "identity-group", "identity-singleton"])
def test_newton_factors_match_dense_matrix(rng, kind):
    if kind.startswith("identity"):
        d = with_identity_block(random_dictionary(rng, 12, 24, [("a", 8), ("b", 8), ("c", 8)]))
        R, starts = d.atoms, d.starts
    else:
        R, starts = normalize_columns(rng.standard_normal((20, 40))), np.arange(0, 40, 4)
    m, n = R.shape
    if kind.endswith("singleton"):
        starts = np.arange(n)
    cones, k = solvers._Cones(np.append(starts, n), n + m), 3

    def interior():  # each cone's first entry above the norm of the rest
        x1 = rng.standard_normal((n + m, k))
        return np.sqrt(cones.sum(x1 * x1)) * rng.uniform(1.05, 2.0, (len(starts) + 1, k)), x1

    sc = solvers._Scaling(cones, *interior(), *interior())
    L, failed = solvers._newton_factors(R, sc, starts, np.array([False, True, False]))
    assert failed.tolist() == [False, True, False]
    for j in (0, 2):
        K, Lj = dense_newton_matrix(R, sc, starts, j), np.tril(L[j])
        assert np.max(np.abs(Lj @ Lj.T - K)) <= 1e-12 * np.max(np.abs(K))


@pytest.mark.parametrize("solve_many, solve", [
    (solvers.solve_group_bpdn_many, solve_group_bpdn),
    (solvers.solve_l1_bpdn_many, solve_l1_bpdn),
])
def test_solve_many_with_zero_code_probe(rng, solve_many, solve):
    d = random_dictionary(rng, 30, 24, [("a", 8), ("b", 8), ("c", 8)])
    u_a, u_b = (vec(d.atoms[:, :8] @ rng.standard_normal(8)) for _ in range(2))
    tiny = vec(0.01 * rng.standard_normal(30) / np.sqrt(30))  # ||tiny|| <= eps
    cfg = SolverConfig(epsilon=0.05)
    reports = solve_many([u_a, tiny, u_b], d, cfg)
    for u, rep in zip([u_a, tiny, u_b], reports):
        ref = solve(u, d, cfg)
        assert (rep.iterations, rep.converged) == (ref.iterations, ref.converged)
        assert np.max(np.abs(rep.coefficients.values - ref.coefficients.values)) <= 1e-9
    assert reports[1].iterations == 0
    assert not np.any(reports[1].coefficients.values)
    assert reports[0].iterations > 0 and reports[2].iterations > 0


@pytest.mark.parametrize("solve_many, solve", [
    (solvers.solve_group_bpdn_many, solve_group_bpdn),
    (solvers.solve_l1_bpdn_many, solve_l1_bpdn),
])
def test_zero_code_probe_outside_the_bound_is_not_converged(solve_many, solve):
    # R^T u = 0, so w = 0 is the solution, but its residual ||u|| = 1 > eps
    d = BlockedDictionary(np.eye(4)[:, :2], (Block("a", FACE, 0, 1), Block("b", FACE, 1, 2)))
    orth, ordinary = vec([0.0, 0.0, 0.6, 0.8]), vec([0.6, 0.8, 0.0, 0.0])
    cfg = SolverConfig(epsilon=0.05)
    rep = solve(orth, d, cfg)
    assert (rep.converged, rep.iterations) == (False, 0)
    assert rep.final_residual == pytest.approx(1.0)
    assert not np.any(rep.coefficients.values)
    first, second = solve_many([ordinary, orth], d, cfg)
    assert first.converged and first.iterations > 0 and first.final_residual <= 0.05
    assert (second.converged, second.iterations) == (False, 0)
    assert second.final_residual == pytest.approx(1.0)
    # no code meets eps: the least-squares code, at the floor, uncertified
    assert rep.status == second.status == solvers.FLOOR
    assert np.isnan(rep.gap) and np.isnan(second.gap)


@pytest.mark.parametrize("solve_many", [solvers.solve_group_bpdn_many,
                                        solvers.solve_l1_bpdn_many])
def test_floor_probe_gets_least_squares_code(rng, solve_many):
    # 30 x 12: a generic probe is at distance ~0.8 from the range of R
    d = random_dictionary(rng, 30, 12, [("a", 4), ("b", 4), ("c", 4)])
    inside = vec(d.atoms @ rng.standard_normal(12) + 0.001 * rng.standard_normal(30))
    outside = vec(rng.standard_normal(30))
    cfg = SolverConfig(epsilon=0.05)
    rep_in, rep_out = solve_many([inside, outside], d, cfg)
    assert rep_in.converged and rep_in.floor < cfg.epsilon
    w_ls = np.linalg.lstsq(d.atoms, outside.data, rcond=None)[0]
    floor = np.linalg.norm(outside.data - d.atoms @ w_ls)
    assert floor > cfg.epsilon
    assert (rep_out.status, rep_out.converged, rep_out.iterations) == (solvers.FLOOR, False, 0)
    assert np.max(np.abs(rep_out.coefficients.values - w_ls)) <= 1e-9
    assert rep_out.floor == pytest.approx(floor, rel=1e-9)
    assert rep_out.final_residual == pytest.approx(floor, rel=1e-9)


def certificate(R, u, rep, block_cols, weights, eps):
    """A report's residual, the largest ||R_b^T theta|| / c_b of its dual
    point theta, and the relative gap between the objective of its code and
    the dual bound u^T theta - eps ||theta||, from the code and theta alone."""
    w, theta = rep.coefficients.values, rep.dual
    primal = sum(c * np.linalg.norm(w[cols]) for cols, c in zip(block_cols, weights))
    bound = u @ theta - eps * np.linalg.norm(theta)
    dual = max(np.linalg.norm(R[:, cols].T @ theta) / c for cols, c in zip(block_cols, weights))
    return np.linalg.norm(u - R @ w), dual, (primal - bound) / primal


@pytest.mark.parametrize("mode", ["group", "q1", "l1", "src"])
@pytest.mark.parametrize("max_iters", [1, 3, 60])
@pytest.mark.parametrize("probes", [1, 3])
def test_report_gap_recomputed_from_coefficients(rng, mode, max_iters, probes):
    # two face blocks of weight 1 and an occlusion block of weight lam; src
    # codes the face atoms and an identity block in l1
    R = normalize_columns(rng.standard_normal((30, 24)))
    lam, eps, tol = 0.5, 0.05, 1e-6
    if mode == "src":
        d = with_identity_block(BlockedDictionary(R, (Block("a", FACE, 0, 12),
                                                      Block("b", FACE, 12, 24))))
        R, block_cols, weights = d.atoms, [[j] for j in range(54)], [1.0] * 54
    else:
        d = BlockedDictionary(R, (Block("a", FACE, 0, 8), Block("b", FACE, 8, 16),
                                  Block("occ", OCCLUSION, 16, 24)))
        if mode == "group":
            block_cols, weights = [range(0, 8), range(8, 16), range(16, 24)], [1.0, 1.0, lam]
        else:
            block_cols = [[j] for j in range(24)]
            weights = [1.0] * 16 + [lam if mode == "q1" else 1.0] * 8
    cfg = SolverConfig(epsilon=eps, lam=lam, q_norm=1.0 if mode == "q1" else 2.0,
                       max_iters=max_iters, tol=tol)
    us = [vec(R[:, :8] @ rng.standard_normal(8) + 0.005 * rng.standard_normal(30))
          for _ in range(probes)]  # residual floors ~0.01, below eps
    if mode in ("l1", "src"):
        reports = solvers.solve_l1_bpdn_many(us, d, cfg)
    else:
        reports = solvers.solve_group_bpdn_many(us, d, cfg)
    for u, rep in zip(us, reports):
        resid, dual, gap = certificate(R, u.data, rep, block_cols, weights, eps)
        # every iterate is primal and dual feasible, certified or not
        assert resid <= eps * (1 + 1e-6)
        assert resid == pytest.approx(rep.final_residual, rel=1e-12)
        assert dual <= 1 + 1e-12
        assert rep.gap == pytest.approx(gap, rel=0, abs=1e-10)
        assert rep.gap >= -1e-12  # weak duality
        if max_iters == 60:
            assert rep.converged and rep.status == solvers.CONVERGED and gap <= tol
        else:
            assert not rep.converged and rep.status == solvers.MAX_ITERS
            assert rep.iterations == max_iters and gap > tol


def test_reports_convergence_only_when_certified(rng, monkeypatch):
    d = random_dictionary(rng, 20, 40, [(f"b{i}", 4) for i in range(10)])
    u = vec(d.atoms[:, :4] @ rng.standard_normal(4) + 0.02 * rng.standard_normal(20))
    cfg = SolverConfig(epsilon=0.05, lam=1.0)
    rep = solve_group_bpdn(u, d, cfg)
    assert (rep.status, rep.converged) == (solvers.CONVERGED, True)
    assert rep.gap <= cfg.tol and rep.final_residual <= cfg.epsilon * (1 + 1e-6)
    # out of Newton steps: a feasible code above the gap target
    capped = solve_group_bpdn(u, d, SolverConfig(epsilon=0.05, lam=1.0, max_iters=2))
    assert (capped.status, capped.converged, capped.iterations) == (solvers.MAX_ITERS, False, 2)
    assert capped.gap > cfg.tol and capped.final_residual <= cfg.epsilon
    # a Newton matrix without a factor stalls the solve at the code it has
    monkeypatch.setattr(solvers, "_newton_factors", lambda R, sc, starts, frozen: (
        np.broadcast_to(np.eye(R.shape[0] + 1), (sc.eta.shape[1], R.shape[0] + 1, R.shape[0] + 1)),
        np.ones(sc.eta.shape[1], dtype=bool)))
    stalled = solve_group_bpdn(u, d, cfg)
    assert (stalled.status, stalled.converged, stalled.iterations) == (solvers.STALLED, False, 0)
    w_ls = np.linalg.lstsq(d.atoms, u.data, rcond=None)[0]
    assert np.max(np.abs(stalled.coefficients.values - w_ls)) <= 1e-9
    assert stalled.final_residual <= cfg.epsilon


# ---------------------------------------------------------------------------
# l1 error fitting


def test_l1_error_exact_span(rng):
    d = random_dictionary(rng, 10, 3)
    x_true = rng.standard_normal(3)
    u = d.atoms @ x_true
    x = l1_regression(d.atoms, u)
    assert np.max(np.abs(u - d.atoms @ x)) < 1e-8
    assert np.allclose(x, x_true, atol=1e-6)


def test_l1_error_single_column_spike():
    col = np.full(9, 1.0 / 3.0)
    u_data = col.copy()
    u_data[0] += 0.5
    x = l1_regression(col[:, None], u_data)
    e = u_data - x[0] * col
    # grid-scan oracle over the single coefficient
    grid = np.linspace(0.5, 1.5, 2001)
    costs = [np.abs(u_data - g * col).sum() for g in grid]
    assert x[0] == pytest.approx(grid[int(np.argmin(costs))], abs=1e-3)
    nonzero = np.abs(e) > 1e-6
    assert nonzero.sum() == 1 and e[0] == pytest.approx(0.5, abs=1e-6)


def test_l1_error_orthogonal_input():
    A = np.eye(6)[:, :2]
    u_data = np.zeros(6)
    u_data[4] = 1.0
    x = l1_regression(A, u_data)
    assert np.max(np.abs(x)) < 1e-9
    assert np.allclose(u_data - A @ x, u_data)


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
    elif kind == "duplicated-rows":
        # repeated pixels: the optimal vertex has more zero residuals than
        # the rank, so its dual point is not fixed by the residual signs
        A = rng.standard_normal((60, 4))
        b = rng.standard_normal(60)
        rows = np.concatenate([np.arange(60), np.arange(20), np.arange(10)])
        return A[rows], b[rows]
    elif kind == "even-median":  # every point between the middle two is optimal
        return np.ones((10, 1)), rng.standard_normal(10)
    elif kind == "four-levels":
        # dependent rows: a non-unique optimum whose vertex has more zero
        # residuals than the rank, some with their dual on the box
        return rng.integers(0, 4, (130, 4)) / 3.0, rng.integers(0, 4, 130) / 3.0
    elif kind == "six-levels":
        # a non-unique optimum whose Newton matrix loses its factor before a
        # vertex is found: the fit is the certified last iterate
        rng = np.random.default_rng(1316)
        m, h, lv = rng.integers(8, 200), rng.integers(1, 8), rng.integers(4, 8)
        return rng.integers(0, lv, (m, h)) / (lv - 1), rng.integers(0, lv, m) / (lv - 1)
    elif kind == "exact-span":
        A = rng.standard_normal((300, 6))
        return A, A @ rng.standard_normal(6)
    elif kind == "zero-basis":  # rank 0: the fit is x = 0
        A = np.zeros((10, 3))
    else:  # fewer rows than columns: b is fitted exactly
        A = rng.standard_normal((5, 8))
    return A, rng.standard_normal(A.shape[0])


@pytest.mark.parametrize(
    "kind", ["720x4", "720x20", "rank-deficient", "wide", "duplicated-rows",
             "even-median", "four-levels", "six-levels", "exact-span", "zero-basis"])
def test_lad_dual_matches_primal_oracle(rng, kind):
    A, b = _lad_instance(rng, kind)
    fit = lad_fit(A, b)
    x_oracle = primal_lad_oracle(A, b)
    oracle = np.abs(b - A @ x_oracle).sum()
    assert abs(fit.primal - oracle) <= 1e-9 * max(1.0, oracle)
    if kind not in ("even-median", "four-levels", "six-levels"):
        # x need not be unique (rank-deficient A), but the fitted values are
        assert np.max(np.abs(A @ fit.x - A @ x_oracle)) <= 1e-9
    assert np.array_equal(l1_regression(A, b), fit.x)
    # the certificate: y is dual feasible, and the objectives are those of
    # x and y and close the gap
    assert np.max(np.abs(fit.y)) <= 1.0 + 1e-9
    assert np.max(np.abs(A.T @ fit.y)) <= 1e-9 * max(1.0, np.abs(A).max())
    assert fit.primal == pytest.approx(np.abs(b - A @ fit.x).sum(), rel=1e-15)
    assert fit.dual == pytest.approx(b @ fit.y, rel=1e-15)
    assert abs(fit.gap) <= LAD_GAP_RTOL * max(1.0, fit.primal)


def test_lad_returns_least_norm_minimizer(rng):
    A, b = _lad_instance(rng, "rank-deficient")
    x = l1_regression(A, b)
    # a null-space vector of A added to x changes no fitted value
    null = np.linalg.svd(A)[2][-1]
    assert np.max(np.abs(A @ null)) < 1e-12
    assert abs(null @ x) < 1e-12


def test_lad_wide_fits_exactly(rng):
    A, b = _lad_instance(rng, "wide")
    fit = lad_fit(A, b)
    assert np.allclose(A @ fit.x, b, atol=1e-9)
    assert fit.dual == pytest.approx(0.0, abs=1e-12)


def test_lad_failed_lp_raises_degenerate(rng, monkeypatch):
    # no step of the interior point finds a vertex with a feasible dual
    monkeypatch.setattr(solvers, "_lad_vertex", lambda *args: None)
    monkeypatch.setattr(solvers, "_LAD_MAX_STEPS", 3)
    A, b = _lad_instance(rng, "720x4")
    with pytest.raises(DegenerateError, match="no vertex"):
        l1_regression(A, b)


def test_lad_gap_above_bound_raises_degenerate(rng, monkeypatch):
    vertex = solvers._lad_vertex

    def off_by_a_bit(*args):
        found = vertex(*args)
        return found and (found[0] + 1e-4, found[1])  # x no longer optimal

    monkeypatch.setattr(solvers, "_lad_vertex", off_by_a_bit)
    A, b = _lad_instance(rng, "720x4")
    with pytest.raises(DegenerateError, match="duality gap"):
        l1_regression(A, b)


def test_lad_lost_factor_ends_at_the_iterate(rng, monkeypatch):
    """A Newton matrix that dpotrf cannot factor (info > 0) ends the interior
    point at its iterate, which lad_fit then certifies or rejects."""
    potrf, infos = linalg.lapack.dpotrf, []

    def recorded(*args, **kwargs):
        factor, info = potrf(*args, **kwargs)
        infos.append(info)
        return factor, info

    monkeypatch.setattr(linalg.lapack, "dpotrf", recorded)
    A, b = _lad_instance(rng, "six-levels")
    fit = lad_fit(A, b)
    assert infos[-1] > 0 and not any(infos[:-1])
    assert abs(fit.gap) <= LAD_GAP_RTOL * max(1.0, fit.primal)
    assert fit.primal == pytest.approx(np.abs(b - A @ primal_lad_oracle(A, b)).sum(), rel=1e-9)
    # lost at the first step, the iterate is the least-squares start with
    # y = 0, whose gap is its whole objective
    monkeypatch.setattr(linalg.lapack, "dpotrf", lambda a, **kwargs: (a, 1))
    A, b = _lad_instance(rng, "720x4")
    with pytest.raises(DegenerateError, match="duality gap"):
        lad_fit(A, b)


@pytest.mark.parametrize("shift", ["outside-box", "off-null-space"])
def test_lad_infeasible_dual_point_raises_degenerate(rng, monkeypatch, shift):
    vertex = solvers._lad_vertex

    def infeasible(Q, *args):
        found = vertex(Q, *args)
        if found is None:
            return None
        z, y = found
        if shift == "outside-box":  # A^T y stays 0
            return z, 1.5 * y
        return z, 0.9 * y + 0.05 * Q[:, 0]  # inside the box, Q^T y != 0

    monkeypatch.setattr(solvers, "_lad_vertex", infeasible)
    A, b = _lad_instance(rng, "720x4")
    with pytest.raises(DegenerateError, match="dual point is infeasible"):
        l1_regression(A, b)
