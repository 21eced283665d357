"""Convex sparse-coding solvers.

One residual-constrained block coder over a weighted partition of the
columns of a dictionary R:

    min sum_b c_b ||w_b||_2    s.t. ||u - R w||_2 <= eps

Group coding uses the dictionary's blocks, with weight c_b = 1 for face
blocks and lambda for occlusion blocks. Plain l1 (all weights 1) and the
weighted l1 of q_norm = 1 are its singleton-block cases. The problem is
solved by a monotone accelerated proximal-gradient scheme (MFISTA, Beck &
Teboulle 2009) on the penalized form  mu * g(w) + 0.5 ||u - R w||^2  with
an outer continuation on mu that steers the residual into a thin window
just below eps. Each iterate carries its residual u - R w, so an
iteration makes one product with R and one with R^T, and the prox's block
norms give the candidate's penalty. Vectors coded against one dictionary
are solved together: each keeps its own mu and bracket, and their MFISTA
iterations run in lockstep, so those products are matrix products. The
momentum is never restarted: gradient-based adaptive restart (O'Donoghue
& Candes 2015) saves iterations, but the iterate-change test then stops
at solutions farther from the optimum, and labels follow them. Each
report carries the relative duality gap of the penalized problem at the
mu its solution was solved at, a certificate that the stopping test
does not use.

A second solver performs l1 error fitting (least absolute deviations),
used by the occlusion-mask estimator: min_x ||b - A x||_1 and its dual LP,
max b^T y s.t. A^T y = 0, -1 <= y <= 1 (Barrodale & Roberts 1973), are
solved on the range of A by a numpy Mehrotra interior point (the
Frisch-Newton method of Portnoy & Koenker 1997). Near the optimum it moves
to the optimal vertex: an exact fit on as many independent rows as the
rank of A, with the dual point taken from the residual signs. The fit
returned is the least-norm x of that vertex. The dual objective bounds the
fit from below, so every fit carries its duality gap, which must vanish,
and a dual point that must lie in the box with A^T y = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .core import FACE, BlockedDictionary, ImageVector, SparseCoefficients
from .errors import DegenerateError, DimMismatchError


@dataclass
class SolverConfig:
    epsilon: float = 0.05  # residual bound
    lam: float | None = None  # occlusion-group weight; None = derived from dict
    q_norm: float = 2.0  # within-group norm, 1 or 2
    max_iters: int = 2000  # inner iterations per penalized solve
    tol: float = 1e-6  # relative iterate-change tolerance
    resid_lower_frac: float = 0.9  # accept residual in [frac*eps, eps]
    max_continuation: int = 60

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.lam is not None and self.lam <= 0:
            raise ValueError("lambda must be > 0")
        if self.q_norm not in (1.0, 2.0):
            raise ValueError("q_norm must be 1 or 2")
        if self.max_iters < 1 or self.tol <= 0:
            raise ValueError("max_iters >= 1 and tol > 0 required")
        if self.max_continuation < 1:
            raise ValueError("max_continuation must be >= 1")
        if not 0.0 <= self.resid_lower_frac <= 1.0:
            raise ValueError("resid_lower_frac must lie in [0, 1]")


@dataclass
class SolveReport:
    coefficients: SparseCoefficients
    iterations: int
    final_residual: float
    objective: float
    converged: bool
    gap: float  # relative duality gap of the penalized solve that gave w


def default_group_weight(dictionary: BlockedDictionary) -> float:
    """sqrt(mean face block size / mean occlusion block size)."""
    face = [b.size for b in dictionary.face_blocks]
    occ = [b.size for b in dictionary.occlusion_blocks]
    if not face or not occ:
        return 1.0
    return float(np.sqrt(np.mean(face) / np.mean(occ)))


# ---------------------------------------------------------------------------
# the weighted block partition: block b is v[starts[b]:starts[b + 1]] with
# weight weights[b]; singleton blocks make the penalty a (weighted) l1 norm


_TINY = np.finfo(float).tiny


def _block_norms(v, starts):
    """Block norms of a vector, or of each column of a matrix."""
    sq = v * v
    if starts.size < len(v):  # singleton blocks sum nothing
        sq = np.add.reduceat(sq, starts)
    return np.sqrt(sq)


def block_penalty(w, starts, weights) -> float:
    """sum_b c_b ||w_b||_2."""
    return float(weights @ _block_norms(w, starts))


def block_prox(v, thresholds, starts, sizes):
    """Shrink each block's norm by its threshold; returns the shrunk vector
    and its block norms.

    With thresholds t * c_b this is the prox of t * block_penalty, and
    weights @ norms is the penalty of the result. ``sizes`` are the block
    lengths. On singleton blocks this is soft thresholding. A matrix v is
    shrunk column by column, with a threshold per block and column."""
    norms = np.maximum(_block_norms(v, starts), _TINY)
    scale = np.maximum(0.0, 1.0 - thresholds / norms)
    if len(scale) < len(v):
        return v * np.repeat(scale, sizes, axis=0), norms * scale
    return v * scale, norms * scale


# ---------------------------------------------------------------------------
# penalized inner solver (monotone FISTA)


def _bpdn_gap(R, u, w, r, mu, starts, weights) -> float:
    """Relative duality gap of  mu * block_penalty(w) + 0.5||r||^2  at
    r = u - R w.

    The dual point is r scaled into the dual feasible set
    {theta : ||R_b^T theta|| <= mu c_b for every block b}."""
    primal = mu * block_penalty(w, starts, weights) + 0.5 * (r @ r)
    dual_norm = float(np.max(_block_norms(R.T @ r, starts) / weights, initial=0.0))
    theta = r * (mu / dual_norm) if dual_norm > mu else r
    dual = 0.5 * (u @ u) - 0.5 * ((u - theta) @ (u - theta))
    return float((primal - dual) / primal)


def _mfista(R, u, w0, mu, step, starts, sizes, weights, max_iters, tol):
    """Minimize mu * block_penalty(w) + 0.5||u - Rw||^2 from w0.

    Returns (w, r, iters) with r = u - R w."""
    thresholds = step * mu * weights
    x = w0
    r = u - R @ x
    fx = 0.5 * (r @ r) + mu * block_penalty(x, starts, weights)
    y, ry = x, r
    t = 1.0
    it = 0
    for it in range(1, max_iters + 1):
        z, z_norms = block_prox(y + step * (R.T @ ry), thresholds, starts, sizes)
        rz = u - R @ z
        fz = 0.5 * (rz @ rz) + mu * (weights @ z_norms)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        x_old, r_old = x, r
        step_z = z - x_old
        if fz <= fx:
            # y = z + (t - 1)/t_new (z - x_old), and its residual alike
            x, r, fx = z, rz, fz
            beta = (t - 1.0) / t_new
            y = z + beta * step_z
            ry = rz + beta * (rz - r_old)
        else:
            # y = x + t/t_new (z - x): momentum toward the rejected candidate
            beta = t / t_new
            y = x + beta * step_z
            ry = r + beta * (rz - r)
        t = t_new
        # stationarity via the prox candidate: ||z - x_old|| vanishes only at
        # a fixed point, whereas x == x_old merely means a non-improving step
        if math.sqrt(step_z @ step_z) <= tol * max(1.0, math.sqrt(x @ x)):
            break
    return x, r, it


def _col_dots(A):
    """The squared norm of each column of A."""
    return np.einsum("ij,ij->j", A, A)


def _mfista_many(R, U, W0, mu, step, starts, sizes, weights, max_iters, tol):
    """_mfista on each column of U from the same column of W0, column j at
    mu[j], run in lockstep: the products with R and R^T are matrix
    products and all columns share the momentum t, as they start together.
    A column leaves at its own iterate-change test.

    Returns (W, Res, iters): the iterates and their residuals u - R w as
    columns, and each column's iterations."""
    k = U.shape[1]
    W, Res, iters = np.empty_like(W0), np.empty_like(U), np.zeros(k, dtype=int)
    live = np.arange(k)  # the original index of each running column
    thresholds = np.outer(weights, step * mu)
    x = W0
    r = U - R @ x
    fx = 0.5 * _col_dots(r) + mu * (weights @ _block_norms(x, starts))
    y, ry = x, r
    t = 1.0
    for it in range(1, max_iters + 1):
        z, z_norms = block_prox(y + step * (R.T @ ry), thresholds, starts, sizes)
        rz = U - R @ z
        fz = 0.5 * _col_dots(rz) + mu * (weights @ z_norms)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        step_z = z - x
        acc = fz <= fx
        if acc.all():
            beta = (t - 1.0) / t_new
            y = z + beta * step_z
            ry = rz + beta * (rz - r)
            x, r, fx = z, rz, fz
        else:
            # each column takes _mfista's accept or reject branch
            beta = np.where(acc, (t - 1.0) / t_new, t / t_new)
            x = np.where(acc, z, x)
            y = x + beta * step_z
            ry_base = np.where(acc, rz, r)
            ry = ry_base + beta * (rz - r)
            r, fx = ry_base, np.where(acc, fz, fx)
        t = t_new
        done = np.sqrt(_col_dots(step_z)) <= tol * np.maximum(1.0, np.sqrt(_col_dots(x)))
        if it == max_iters:
            done[:] = True
        if done.any():
            out = live[done]
            W[:, out], Res[:, out], iters[out] = x[:, done], r[:, done], it
            if done.all():
                break
            keep = ~done
            live = live[keep]
            U, x, r, y, ry, thresholds = (a[:, keep] for a in (U, x, r, y, ry, thresholds))
            mu, fx = mu[keep], fx[keep]
    return W, Res, iters


class _Continuation:
    """One probe's search for mu: a bisection on log10(mu) that steers the
    residual of the penalized solution into [lo, hi]."""

    def __init__(self, u, mu_max, n):
        self.u = u
        self.w = np.zeros(n)
        self.iters = 0
        # (mu, w, r) of a solve, with the mu it was solved at: self.mu has
        # moved on when the search ends at max_continuation
        self.last = None
        self.best = None  # the solve with ||r|| <= hi at the largest mu seen
        log_hi = np.log10(mu_max)
        self.bracket = [log_hi - 14.0, log_hi]
        self.mu = 10.0 ** (log_hi - 2.0)

    def update(self, w, r, it, lo, hi) -> bool:
        """Take the penalized solution at self.mu; True once the search ends."""
        self.w = w
        self.iters += it
        self.last = (self.mu, w, r)
        resid = float(np.linalg.norm(r))
        if resid <= hi:
            if self.best is None or self.mu > self.best[0]:
                self.best = self.last
            if resid >= lo:
                return True
            self.bracket[0] = np.log10(self.mu)  # residual too small -> raise mu
        else:
            self.bracket[1] = np.log10(self.mu)  # infeasible -> lower mu
        if self.bracket[1] - self.bracket[0] < 1e-3:
            return True
        self.mu = 10.0 ** (0.5 * (self.bracket[0] + self.bracket[1]))
        return False

    def report(self, R, starts, weights) -> SolveReport:
        """The solution at the largest mu whose residual met hi; without
        one, the last iterate, reported as not converged."""
        mu, w, r = self.last if self.best is None else self.best
        return SolveReport(SparseCoefficients(w), self.iters, float(np.linalg.norm(r)),
                           block_penalty(w, starts, weights), self.best is not None,
                           _bpdn_gap(R, self.u, w, r, mu, starts, weights))


def _solve_bpdn(us, dictionary, cfg, starts, weights):
    """Continuation loop steering the residual of each vector of us into
    [frac*eps, eps]; returns a SolveReport per vector.

    Each vector keeps its own mu and bracket. A round solves once at the
    current mu of every vector still searching: by _mfista when there is
    one, by _mfista_many when there are more."""
    R = dictionary.atoms
    eps = cfg.epsilon
    step = 1.0 / max(np.linalg.norm(R, 2) ** 2, 1e-12)
    sizes = np.diff(starts, append=dictionary.n)
    # residual target window; eps = 0 means "as exact as the tolerance allows"
    hi = eps if eps > 0 else cfg.tol
    lo = cfg.resid_lower_frac * eps

    reports = [None] * len(us)
    live = []  # (index in us, search) of the vectors still searching
    for j, u in enumerate(us):
        u_norm = np.linalg.norm(u)
        # smallest mu for which w = 0 is optimal
        mu_max = float(np.max(_block_norms(R.T @ u, starts) / weights, initial=0.0))
        if u_norm <= eps or mu_max == 0.0:
            # w = 0 is the solution, but it meets the bound only if u does
            reports[j] = SolveReport(SparseCoefficients(np.zeros(dictionary.n)), 0,
                                     float(u_norm), 0.0, bool(u_norm <= hi), 0.0)
        else:
            live.append((j, _Continuation(u, mu_max, dictionary.n)))
    searches = list(live)
    for _ in range(cfg.max_continuation):
        if not live:
            break
        cs = [c for _, c in live]
        if len(cs) == 1:
            c = cs[0]
            solved = [_mfista(R, c.u, c.w, c.mu, step, starts, sizes, weights,
                              cfg.max_iters, cfg.tol)]
        else:
            W, Res, iters = _mfista_many(
                R, np.column_stack([c.u for c in cs]),
                np.column_stack([c.w for c in cs]), np.array([c.mu for c in cs]),
                step, starts, sizes, weights, cfg.max_iters, cfg.tol)
            solved = zip(W.T, Res.T, iters.tolist())
        live = [(j, c) for (j, c), solution in zip(live, solved)
                if not c.update(*solution, lo, hi)]
    for j, c in searches:
        reports[j] = c.report(R, starts, weights)
    return reports


def _check_dims(us, dictionary):
    for u in us:
        if u.m != dictionary.m:
            raise DimMismatchError(f"u has m={u.m}, dictionary has m={dictionary.m}")


def solve_l1_bpdn_many(
    us: list[ImageVector], dictionary: BlockedDictionary, cfg: SolverConfig
) -> list[SolveReport]:
    """solve_l1_bpdn of each of us, all coded together."""
    _check_dims(us, dictionary)
    n = dictionary.n
    return _solve_bpdn([u.data for u in us], dictionary, cfg, np.arange(n), np.ones(n))


def solve_l1_bpdn(
    u: ImageVector, dictionary: BlockedDictionary, cfg: SolverConfig
) -> SolveReport:
    """min ||w||_1 s.t. ||u - R w||_2 <= eps: singleton blocks of weight 1."""
    return solve_l1_bpdn_many([u], dictionary, cfg)[0]


def solve_group_bpdn_many(
    us: list[ImageVector], dictionary: BlockedDictionary, cfg: SolverConfig
) -> list[SolveReport]:
    """solve_group_bpdn of each of us, all coded together."""
    _check_dims(us, dictionary)
    if not dictionary.blocks:
        raise DimMismatchError("dictionary has no blocks")
    lam = cfg.lam if cfg.lam is not None else default_group_weight(dictionary)
    starts = dictionary.starts
    weights = np.array([1.0 if b.kind == FACE else lam for b in dictionary.blocks])
    if cfg.q_norm == 1.0:
        weights = np.repeat(weights, np.diff(starts, append=dictionary.n))
        starts = np.arange(dictionary.n)
    return _solve_bpdn([u.data for u in us], dictionary, cfg, starts, weights)


def solve_group_bpdn(
    u: ImageVector, dictionary: BlockedDictionary, cfg: SolverConfig
) -> SolveReport:
    """min sum_b c_b ||w_b||_q s.t. ||u - R w||_2 <= eps.

    Face blocks have weight 1, occlusion blocks weight lambda. q = 1 is
    the same weights spread over singleton blocks.
    """
    return solve_group_bpdn_many([u], dictionary, cfg)[0]


# ---------------------------------------------------------------------------
# l1 error fitting (least absolute deviations)


LAD_GAP_RTOL = 1e-9  # certified fits have |primal - dual| <= this * max(1, primal)
_LAD_MAX_STEPS = 50  # interior-point steps before a fit is declared degenerate
_STEP_TO_BOUNDARY = 0.99995  # share of the longest step that keeps slacks positive


@dataclass
class LadFit:
    """A least-absolute-deviation fit and its dual certificate."""

    x: np.ndarray
    y: np.ndarray  # dual point: A^T y = 0, -1 <= y <= 1
    primal: float  # ||b - A x||_1
    dual: float  # b^T y, a lower bound on every ||b - A x'||_1

    @property
    def gap(self) -> float:
        return self.primal - self.dual


def _max_step(*pairs):
    """The largest a <= 1 with x + a dx >= 0 for each pair (x, dx), x > 0."""
    return 1.0 / max(1.0, max(float(np.max(-dx / x)) for x, dx in pairs))


def _lad_vertex(Q, b, r, y, tol):
    """The vertex (z, y) next to an interior point with dual y and residual
    r = b - Q z, or None when its dual point is not feasible.

    The vertex fits b exactly on the k rows that LU with partial pivoting
    of the 1 / (|r| + tol)-weighted rows of Q moves into its leading block:
    independent rows of small |r|. Its dual point is the sign of the
    residual where that is nonzero. Dependent rows can leave more zero
    residuals than k. A zero row whose interior residual outweighs its room
    to the box, |r| > 1 - |y|, keeps its dual on the box (complementarity
    drives the smaller of the two to 0), as at a non-unique optimum such as
    an even-count median; on the other zero rows y is corrected onto
    Q^T y = 0 by least squares."""
    k = Q.shape[1]
    perm = linalg.lu(Q / (np.abs(r) + tol)[:, None], p_indices=True, check_finite=False)[0]
    basis = np.flatnonzero(perm < k)
    z = np.linalg.solve(Q[basis], b[basis])
    res = b - Q @ z
    zero = np.abs(res) <= tol
    free = zero & (np.abs(r) <= 1.0 - np.abs(y))
    y = np.where(free, y, np.sign(np.where(zero, y, res)))
    if free.any():
        y[free] -= np.linalg.lstsq(Q[free].T, Q.T @ y, rcond=None)[0]
    if np.max(np.abs(y)) > 1.0 + 1e-12 or np.max(np.abs(Q.T @ y)) > 1e-12:
        return None
    return z, np.clip(y, -1.0, 1.0)  # a free row's y can land on the box


def _lad_dual(Q, b):
    """max b^T y  s.t.  Q^T y = 0, -1 <= y <= 1, for Q with near-orthonormal
    columns, by Mehrotra predictor-corrector steps (the Frisch-Newton method
    of Portnoy & Koenker 1997). Returns the optimal vertex (z, y), z
    minimizing ||b - Q z||_1; raises DegenerateError when none is found
    within _LAD_MAX_STEPS steps or the steps break down.

    The iterates are y, its box slacks s = 1 - y and t = 1 + y, carried
    as variables so that they never cancel to 0, and the primal z with
    the split w - v = b - Q z, w, v > 0. Every iterate is feasible, so
    the complementarity s^T w + t^T v is the duality gap. Once it is below
    1e-3 of the objective, each step first tries the vertex."""
    m = len(b)
    tol = 1e-11 * max(1.0, float(np.max(np.abs(b))))
    z = Q.T @ b  # least-squares start
    r = b - Q @ z
    spread = max(float(np.mean(np.abs(r))), tol)
    w, v = np.maximum(r, 0.0) + spread, np.maximum(-r, 0.0) + spread
    y, s, t = np.zeros(m), np.ones(m), np.ones(m)
    for step in range(_LAD_MAX_STEPS):
        comp = s @ w + t @ v
        if comp <= 1e-3 * max(1.0, abs(b @ y)):
            vertex = _lad_vertex(Q, b, r, y, tol)
            if vertex is not None:
                return vertex
        d = 1.0 / (w / s + v / t)
        try:
            factor = linalg.cho_factor((Q * d[:, None]).T @ Q, check_finite=False)
        except np.linalg.LinAlgError:  # the steps broke down short of a vertex
            break
        rd, rp = r - w + v, -(Q.T @ y)  # rounding drift off feasibility

        def direction(rws, rvt):
            # Newton step for the complementarities w s = rws, v t = rvt
            g = rd - rws / s + rvt / t
            dz = linalg.cho_solve(factor, Q.T @ (d * g) - rp, check_finite=False)
            dy = d * (g - Q @ dz)
            return dz, dy, (rws + w * dy) / s, (rvt - v * dy) / t

        dz, dy, dw, dv = direction(-w * s, -v * t)  # affine predictor
        ap, ad = _max_step((s, -dy), (t, dy)), _max_step((w, dw), (v, dv))
        comp_aff = (s - ap * dy) @ (w + ad * dw) + (t + ap * dy) @ (v + ad * dv)
        sigma_mu = (comp_aff / comp) ** 3 * comp / (2 * m)  # centering target
        dz, dy, dw, dv = direction(sigma_mu - w * s + dy * dw, sigma_mu - v * t - dy * dv)
        ap = _STEP_TO_BOUNDARY * _max_step((s, -dy), (t, dy))
        ad = _STEP_TO_BOUNDARY * _max_step((w, dw), (v, dv))
        y, s, t = y + ap * dy, s - ap * dy, t + ap * dy
        z, w, v = z + ad * dz, w + ad * dw, v + ad * dv
        r = b - Q @ z
    raise DegenerateError(f"l1 regression found no vertex in {step + 1} steps")


def lad_fit(A: np.ndarray, b: np.ndarray) -> LadFit:
    """argmin_x ||b - A x||_1 through its dual LP

        max b^T y  s.t.  A^T y = 0,  -1 <= y <= 1.

    The LP is solved on the k left singular vectors Q = A V_k S_k^-1 of A,
    with V and S^2 the eigenvectors and eigenvalues of A^T A, and
    x = V_k S_k^-1 z for the optimal fit Q z. Directions with a singular
    value below 1e-6 of the largest count as null space. The minimizers
    differ by null-space vectors of A when A has lower rank than
    columns, as every labeled basis of the synthetic gallery does; x is the
    one of least norm. Raises DegenerateError when no optimal vertex is
    found or the certificate fails: y must lie in the box with
    |A^T y| <= 1e-9 max(1, max|A|), and the duality gap must not exceed
    LAD_GAP_RTOL relative to the fit."""
    m = A.shape[0]
    try:
        # the small eigenproblem, not an SVD of the tall A, whose LAPACK call
        # makes many small BLAS calls that wake every BLAS thread; rounding
        # leaves null eigenvalues near 1e-16 of the largest, far below 1e-12
        lam, V = np.linalg.eigh(A.T @ A)
        lam, V = lam[::-1], V[:, ::-1]
        k = int(np.sum(lam > 1e-12 * lam.max(initial=0.0)))
        sv = np.sqrt(lam[:k])
        Q = A @ (V[:, :k] / sv)
        if k == 0:  # A = 0: nothing is fitted and y = sign(b) meets every |b_i|
            z, y = np.zeros(0), np.sign(b)
        elif k == m:  # an exact fit; y = 0 is the only dual point
            z, y = np.linalg.solve(Q, b), np.zeros(m)
        else:
            z, y = _lad_dual(Q, b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateError(f"l1 regression failed: {exc}") from exc
    x = V[:, :k] @ (z / sv)
    fit = LadFit(x, y, float(np.abs(b - A @ x).sum()), float(b @ y))
    if not (np.max(np.abs(y), initial=0.0) <= 1.0
            and np.max(np.abs(A.T @ y), initial=0.0)
            <= 1e-9 * max(1.0, np.max(np.abs(A), initial=0.0))):
        raise DegenerateError("l1 regression dual point is infeasible")
    if not abs(fit.gap) <= LAD_GAP_RTOL * max(1.0, fit.primal):
        raise DegenerateError(
            f"l1 regression duality gap {fit.gap:.3g} at objective {fit.primal:.6g}"
        )
    return fit


def l1_regression(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin_x ||b - A x||_1 of least norm, certified by lad_fit."""
    return lad_fit(A, b).x
