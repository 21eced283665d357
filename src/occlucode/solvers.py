"""Convex sparse-coding solvers.

One residual-constrained block coder over a weighted partition of the
columns of a dictionary R:

    min sum_b c_b ||w_b||_2    s.t. ||u - R w||_2 <= eps

Group coding uses the dictionary's blocks, with weight c_b = 1 for face
blocks and lambda for occlusion blocks; q_norm = 1 spreads those weights
over singleton blocks, and plain l1 is that case at lambda = 1. The
problem is a second-order cone program: minimize sum_b c_b t_b with each
block's (t_b, w_b) and the residual's (eps, u - R w) in a second-order
cone. Its dual is

    max u^T theta - eps ||theta||    s.t. ||R_b^T theta|| <= c_b.

A primal-dual interior point with Nesterov-Todd scaling and Mehrotra
predictor-corrector steps solves both (the coneqp scheme of Vandenberghe,
"The CVXOPT linear and quadratic cone program solvers", 2010). It starts
from the least-squares code and an exactly feasible dual point that is
centered: the residual cone's complementarity eps z_r is
sum_b c_b t_b / (nb + 1), on the scale of the block cones' c_b t_b (a
start far off the central path costs Mehrotra steps). The dual bound reads
theta alone, so the start moves no certificate. Every iterate stays primal
and dual feasible, so each report carries a certificate: the code meets
eps, theta meets the dual constraints, and the relative gap between their
objectives is at most tol when the solve converges. A Newton step costs
one Cholesky factorization of an (m+1) x (m+1) matrix per vector. Vectors
coded against one dictionary move together as stacked arrays; a vector
that is done keeps its column and takes zero steps. No code has a residual
below the floor dist(u, range R); a vector whose floor reaches eps gets its
least-squares code, reported as not converged with status FLOOR.

A second solver performs l1 error fitting (least absolute deviations),
used by the occlusion-mask estimator: min_x ||b - A x||_1 and its dual LP,
max b^T y s.t. A^T y = 0, -1 <= y <= 1 (Barrodale & Roberts 1973), are
solved on the range of A by a numpy Mehrotra interior point (the
Frisch-Newton method of Portnoy & Koenker 1997). Near the optimum it moves
to the optimal vertex: an exact fit on as many independent rows as the
rank of A, with the dual point taken from the residual signs. The fit
returned is the least-norm x of that vertex, or of the last iterate when
the Newton matrix loses its factor first. The dual objective bounds the
fit from below, so every fit carries its duality gap, which must vanish,
and a dual point that must lie in the box with A^T y = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg

from .core import FACE, BlockedDictionary, ImageVector, SparseCoefficients
from .errors import DegenerateError, DimMismatchError


@dataclass
class SolverConfig:
    epsilon: float = 0.05  # residual bound; 0 means a bound of tol
    lam: float | None = None  # occlusion-group weight; None = derived from dict
    q_norm: float = 2.0  # within-group norm, 1 or 2
    max_iters: int = 100  # cap on interior-point (Newton) steps per solve
    tol: float = 1e-6  # relative duality gap that certifies a solve
    # unused; accepted because perfbench's SOLVER passes it (ROADMAP item 1)
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


# the status of a solve: certified; no code meets eps; out of Newton steps;
# the Newton steps broke down
CONVERGED, FLOOR, MAX_ITERS, STALLED = "converged", "floor", "max_iters", "stalled"


@dataclass
class SolveReport:
    coefficients: SparseCoefficients
    iterations: int  # interior-point (Newton) steps
    final_residual: float
    objective: float
    converged: bool  # status is CONVERGED
    gap: float  # (objective - dual bound) / objective; NaN at the floor
    floor: float = 0.0  # ||u - R w_ls||: no code has a smaller residual
    status: str = CONVERGED
    dual: np.ndarray | None = None  # theta: ||R_b^T theta|| <= c_b for each block


def default_group_weight(dictionary: BlockedDictionary) -> float:
    """sqrt(mean face block size / mean occlusion block size)."""
    face = [b.size for b in dictionary.face_blocks]
    occ = [b.size for b in dictionary.occlusion_blocks]
    if not face or not occ:
        return 1.0
    return float(np.sqrt(np.mean(face) / np.mean(occ)))


def block_penalty(w, starts, weights) -> float:
    """sum_b c_b ||w_b||_2 over the blocks w[starts[b]:starts[b + 1]]."""
    return float(weights @ np.sqrt(np.add.reduceat(w * w, starts)))


# ---------------------------------------------------------------------------
# second-order cones. A stack of cones keeps each cone's first entry as a
# row of x0 and its other entries as rows of x1, cone i owning the rows
# starts[i]:starts[i + 1]; each column is one vector's cones.


class _Cones:
    def __init__(self, starts, rows):
        self.starts = starts
        self.sizes = np.diff(starts, append=rows)

    def sum(self, v):
        """Per-cone sums of the rows of v."""
        return np.add.reduceat(v, self.starts, axis=0)

    def rep(self, x):
        """Per-cone values repeated over each cone's rows."""
        return x.repeat(self.sizes, axis=0)

    def prod(self, x0, x1, y0, y1):
        """The Jordan product x o y = (x^T y, x0 y1 + y0 x1)."""
        return x0 * y0 + self.sum(x1 * y1), self.rep(x0) * y1 + self.rep(y0) * x1

class _Scaling:
    """The Nesterov-Todd scaling of a stack of cones at (s, z) in their
    interiors: per cone W = eta (2 v v^T - J), symmetric, with W z = W^-1 s
    = l, the scaled point, and W^2 = eta^2 (2 wb wb^T - J). Here wb is the
    scaling point (wb^T J wb = 1), v = (wb + e) / sqrt(2 (1 + wb_0)) and
    J = diag(1, -1, ..., -1). The formulas for l avoid cancellation
    (Vandenberghe 2010, section 4)."""

    def __init__(self, cones, s0, s1, z0, z1):
        self.cones = cones
        sn, zn = np.sqrt(cones.sum(s1 * s1)), np.sqrt(cones.sum(z1 * z1))
        a, b = np.sqrt((s0 - sn) * (s0 + sn)), np.sqrt((z0 - zn) * (z0 + zn))
        g = np.sqrt(0.5 + 0.5 * (s0 * z0 + cones.sum(s1 * z1)) / (a * b))
        self.eta = np.sqrt(a / b)
        self.w0 = (s0 / a + z0 / b) / (2.0 * g)
        self.w1 = (s1 / cones.rep(a) - z1 / cones.rep(b)) / cones.rep(2.0 * g)
        self.v0 = np.sqrt(0.5 * (self.w0 + 1.0))
        self.v1 = self.w1 / cones.rep(2.0 * self.v0)
        # l and sqrt(l^T J l) = sqrt(ab)
        self.root, d = np.sqrt(a * b), 2.0 * g + s0 / a + z0 / b
        self.l0 = g * self.root
        self.l1 = (cones.rep(self.root * (g + z0 / b) / (d * a)) * s1
                   + cones.rep(self.root * (g + s0 / a) / (d * b)) * z1)

    def reach(self, *xs):
        """For each vector, the t with l + a x in every cone for every
        direction x of xs when a < 1 / t: in the frame where l is the
        identity, minus the smallest eigenvalue of x, or 0."""
        rep, a = self.cones.rep, self.root
        l0, l1 = self.l0 / a, self.l1 / rep(a)
        t = 0.0
        for x0, x1 in xs:
            lx = l0 * x0 - self.cones.sum(l1 * x1)
            y1 = (x1 - l1 * rep((x0 + lx) / (l0 + 1.0))) / rep(a)
            t = np.maximum(t, np.max(np.sqrt(self.cones.sum(y1 * y1)) - lx / a, axis=0))
        return np.maximum(t, 0.0)

    def divide(self, y0, y1):
        """The x with l o x = y."""
        d, ly = self.root * self.root, self.cones.sum(self.l1 * y1)
        return ((self.l0 * y0 - ly) / d,
                y1 / self.cones.rep(self.l0) + self.l1 * self.cones.rep((ly / self.l0 - y0) / d))

    def apply(self, x0, x1):
        """W x."""
        vx = self.v0 * x0 + self.cones.sum(self.v1 * x1)
        return (self.eta * (2.0 * self.v0 * vx - x0),
                self.cones.rep(self.eta) * (2.0 * self.v1 * self.cones.rep(vx) + x1))

    def apply_inverse(self, x0, x1):
        """W^-1 x = (2 J v v^T J - J) x / eta."""
        vx = self.v0 * x0 - self.cones.sum(self.v1 * x1)
        return ((2.0 * self.v0 * vx - x0) / self.eta,
                (x1 - 2.0 * self.v1 * self.cones.rep(vx)) / self.cones.rep(self.eta))


_CONE_STEP = 0.99  # share of the longest step that keeps the cone iterates interior


# A vector's code must not depend on which vectors are coded with it, so
# products and sums over rows are computed column by column, in an order
# that does not depend on the number of columns.


def _each(M, X):
    """M @ x for each column x of X."""
    return (M @ np.ascontiguousarray(X.T)[:, :, None])[:, :, 0].T


def _col_sum(X):
    """The sum of each column of X, added up row by row."""
    return np.add.reduceat(X, [0], axis=0)[0]


@np.errstate(divide="ignore", invalid="ignore")  # a broken-down step stalls its vector
def _interior_point(R, U, W, starts, weights, eps, tol, max_iters):
    """Solve min sum_b c_b ||w_b|| s.t. ||u - R w|| <= eps for each column u
    of U, from the column of W with ||u - R w|| < eps.

    The cones are (t_b, w_b) for each block and (eps, u - R w) for the
    residual; their duals are z_b = (c_b, R_b^T y) and (z_r, y), which
    makes every dual iterate feasible, and the dual bound is that of
    theta = -y. y starts at 0, so any z_r > 0 is feasible; z_r starts at
    eps z_r = sum_b c_b t_b / (nb + 1), which centers the residual cone's
    complementarity eps z_r with the block cones' c_b t_b, and the bound
    does not read it. Eliminating the block cones leaves one (m+1)-dimensional
    system per vector for the step of (z_r, y), with the matrix
    K = W_r^2 + [0 + R E R^T], E_b = eta_b^2 (I + 2 wb_b wb_b^T) the block
    part of the block cone's W^2.

    A vector is frozen, and takes zero steps, once its gap certifies it or
    its scaling, Newton matrix or step breaks down; the solve ends when
    every vector is frozen or after max_iters steps. Returns (W, Theta,
    steps, gaps, statuses), a column or entry per vector."""
    m, n = R.shape
    nb, k = len(starts), U.shape[1]
    cones = _Cones(np.append(starts, n), n + m)
    sizes = cones.sizes[:nb]
    c = weights[:, None]
    zero, zeros = np.zeros((1, k)), np.zeros((nb, k))
    # the iterates are the cones' points; each step updates the slack u - R w
    # and the dual parts R_b^T y by the products with R that it computes
    s0 = np.concatenate((np.sqrt(np.add.reduceat(W * W, starts, axis=0)) + 1.0,
                         np.full((1, k), eps)))
    s1 = np.concatenate((W, U - _each(R, W)))
    z_r = _col_sum(c * s0[:nb]) / ((nb + 1) * eps)  # the centered start
    z0, z1 = np.concatenate((np.repeat(c, k, axis=1), z_r[None])), np.zeros((n + m, k))
    steps, frozen = np.zeros(k, dtype=int), np.zeros(k, dtype=bool)
    for step in range(max_iters + 1):
        W, r, y = s1[:n], s1[n:], z1[n:]
        objective = _col_sum(c * np.sqrt(np.add.reduceat(W * W, starts, axis=0)))
        bound = -_col_sum(U * y) - eps * np.sqrt(_col_sum(y * y))
        gap = (objective - bound) / objective
        converged = (gap <= tol) & (_col_sum(r * r) <= eps * eps)
        frozen |= converged
        if frozen.all() or step == max_iters:
            break
        sc = _Scaling(cones, s0, s1, z0, z1)
        L, frozen = _newton_factors(R, sc, starts, frozen)
        eta2, w1 = sc.eta[:nb] ** 2, sc.w1[:n]

        def solve(rhs):  # a frozen vector's step is never taken
            return np.column_stack([bj if stop else linalg.lapack.dpotrs(Lj, bj, lower=1)[0]
                                    for Lj, bj, stop in zip(L, rhs.T, frozen)])

        def newton(q0, q1):
            """The step (ds, dz) for the scaled complementarity target q, and
            the same step in the scaled frame, (W^-1 ds, W dz)."""
            Wq0, Wq1 = sc.apply(q0, q1)
            dzr = solve(np.concatenate((Wq0[nb:], Wq1[n:] + _each(R, Wq1[:n]))))
            p = _each(R.T, dzr[1:])
            wp = np.add.reduceat(w1 * p, starts, axis=0)
            dt = Wq0[:nb] - 2.0 * eta2 * sc.w0[:nb] * wp
            dw = Wq1[:n] - eta2.repeat(sizes, axis=0) * (2.0 * w1 * wp.repeat(sizes, axis=0) + p)
            ds = np.concatenate((dt, zero)), np.concatenate((dw, -_each(R, dw)))
            dz = np.concatenate((zeros, dzr[:1])), np.concatenate((p, dzr[1:]))
            return ds, dz, sc.apply_inverse(*ds), sc.apply(*dz)

        # affine predictor: q = l o\ (-l o l) = -l
        *_, ds, dz = newton(-sc.l0, -sc.l1)
        sigma = (1.0 - 1.0 / np.maximum(sc.reach(ds, dz), 1.0)) ** 3
        mu = _col_sum(sc.l0 * sc.l0 + cones.sum(sc.l1 * sc.l1)) / (nb + 1)
        # corrector: l o (ds + dz) = sigma mu e - l o l - ds_a o dz_a
        p0, p1 = cones.prod(*ds, *dz)
        q0, q1 = sc.divide(sigma * mu - p0, -p1)
        ds, dz, ds_scaled, dz_scaled = newton(q0 - sc.l0, q1 - sc.l1)
        reach = sc.reach(ds_scaled, dz_scaled)
        frozen |= ~np.isfinite(reach)
        alpha = _CONE_STEP / np.maximum(reach, _CONE_STEP)

        def advance(x, dx):
            return x + np.where(frozen, 0.0, alpha * dx)

        s0, s1 = advance(s0, ds[0]), advance(s1, ds[1])
        z0, z1 = advance(z0, dz[0]), advance(z1, dz[1])
        steps += ~frozen
    status = [CONVERGED if ok else STALLED if stop else MAX_ITERS
              for ok, stop in zip(converged, frozen)]
    return W, -y, steps, gap, status


def _newton_factors(R, sc, starts, frozen):
    """The lower Cholesky factor of each vector's K = W_r^2 + [0 + R E R^T],
    and the mask of the vectors that have none: those frozen, and those
    whose scaling is not finite or whose K is not positive definite."""
    m, n = R.shape
    nb = len(starts)
    eta, w1 = sc.eta[:nb].repeat(sc.cones.sizes[:nb], axis=0), sc.w1[:n]
    if nb == n:  # singleton blocks: E = eta^2 (1 + 2 wb^2) is diagonal
        eta = eta * np.sqrt(1.0 + 2.0 * w1 * w1)
    wr, er2 = np.concatenate((sc.w0[nb:], sc.w1[n:])).T, sc.eta[nb] ** 2  # residual cone
    failed = frozen | ~np.isfinite(sc.eta.sum(axis=0) + sc.w0.sum(axis=0) + sc.w1.sum(axis=0))
    L = np.empty((len(failed), m + 1, m + 1))
    for j in np.flatnonzero(~failed):
        A = R * eta[:, j]
        K_low = A @ A.T
        if nb < n:
            V = np.add.reduceat(A * w1[:, j], starts, axis=1)
            K_low += 2.0 * (V @ V.T)
        K = (2.0 * er2[j]) * (wr[j][:, None] * wr[j])
        K[1:, 1:] += K_low
        K.flat[m + 2:: m + 2] += er2[j]
        K[0, 0] -= er2[j]
        L[j], info = linalg.lapack.dpotrf(K, lower=1, clean=0)
        failed[j] = info != 0
    return L, failed


def _solve_bpdn(us, dictionary, cfg, starts, weights):
    """A SolveReport per vector of us: the code, the interior point's
    certificate and its status."""
    if not us:
        return []
    R = dictionary.atoms
    m, n = R.shape
    eps = cfg.epsilon if cfg.epsilon > 0 else cfg.tol  # eps = 0: as exact as tol
    U = np.column_stack(us)
    # the least-squares codes of least norm, by one eigendecomposition of R R^T
    lam, V = np.linalg.eigh(R @ R.T)
    rank = lam > 1e-12 * lam[-1]
    W = _each(R.T, _each(V[:, rank], _each(V[:, rank].T, U) / lam[rank, None]))
    res = U - _each(R, W)
    floor, size = np.sqrt(_col_sum(res * res)), np.sqrt(_col_sum(U * U))
    coded = (size > eps) & (floor < eps)
    W[:, size <= eps] = 0.0  # w = 0 meets the bound
    theta, steps = np.zeros((m, len(us))), np.zeros(len(us), dtype=int)
    gaps = np.where(size <= eps, 0.0, np.nan)
    status = np.where(size <= eps, CONVERGED, FLOOR).astype(object)
    if coded.any():
        W[:, coded], theta[:, coded], steps[coded], gaps[coded], status[coded] = _interior_point(
            R, U[:, coded], W[:, coded], starts, weights, eps, cfg.tol, cfg.max_iters)
    return [
        SolveReport(SparseCoefficients(W[:, j]), int(steps[j]),
                    float(np.linalg.norm(U[:, j] - R @ W[:, j])),
                    block_penalty(W[:, j], starts, weights), status[j] == CONVERGED,
                    float(gaps[j]), float(floor[j]), status[j], theta[:, j])
        for j in range(len(us))
    ]


def solve_l1_bpdn_many(
    us: list[ImageVector], dictionary: BlockedDictionary, cfg: SolverConfig
) -> list[SolveReport]:
    """solve_l1_bpdn of each of us, all coded together."""
    return solve_group_bpdn_many(us, dictionary, replace(cfg, lam=1.0, q_norm=1.0))


def solve_l1_bpdn(
    u: ImageVector, dictionary: BlockedDictionary, cfg: SolverConfig
) -> SolveReport:
    """min ||w||_1 s.t. ||u - R w||_2 <= eps: the group coder at lambda = 1, q = 1."""
    return solve_l1_bpdn_many([u], dictionary, cfg)[0]


def solve_group_bpdn_many(
    us: list[ImageVector], dictionary: BlockedDictionary, cfg: SolverConfig
) -> list[SolveReport]:
    """solve_group_bpdn of each of us, all coded together."""
    for u in us:
        if u.m != dictionary.m:
            raise DimMismatchError(f"u has m={u.m}, dictionary has m={dictionary.m}")
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


def _max_step(x1, dx1, x2, dx2):
    """The largest a <= 1 with x + a dx >= 0 for (x1, dx1) and (x2, dx2), x > 0."""
    return 1.0 / max(1.0, (-dx1 / x1).max(), (-dx2 / x2).max())


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
    minimizing ||b - Q z||_1, or the last iterate when the Newton matrix
    loses its Cholesky factor, which happens as the iterates close in on
    the optimum; raises DegenerateError when neither happens within
    _LAD_MAX_STEPS steps.

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
        factor, info = linalg.lapack.dpotrf((Q * d[:, None]).T @ Q, lower=0, clean=0)
        if info != 0:  # short of a vertex: lad_fit certifies the iterate
            return z, y
        rd, rp = r - w + v, -(Q.T @ y)  # rounding drift off feasibility

        def direction(rws, rvt):
            # Newton step for the complementarities w s = rws, v t = rvt
            g = rd - rws / s + rvt / t
            dz = linalg.lapack.dpotrs(factor, Q.T @ (d * g) - rp, lower=0)[0]
            dy = d * (g - Q @ dz)
            return dz, dy, (rws + w * dy) / s, (rvt - v * dy) / t

        dz, dy, dw, dv = direction(-w * s, -v * t)  # affine predictor
        ap, ad = _max_step(s, -dy, t, dy), _max_step(w, dw, v, dv)
        comp_aff = (s - ap * dy) @ (w + ad * dw) + (t + ap * dy) @ (v + ad * dv)
        sigma_mu = (comp_aff / comp) ** 3 * comp / (2 * m)  # centering target
        dz, dy, dw, dv = direction(sigma_mu - w * s + dy * dw, sigma_mu - v * t - dy * dv)
        ap = _STEP_TO_BOUNDARY * _max_step(s, -dy, t, dy)
        ad = _STEP_TO_BOUNDARY * _max_step(w, dw, v, dv)
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
    one of least norm. Raises DegenerateError when the interior point ends
    at neither a vertex nor an iterate whose Newton matrix lost its factor,
    or when the certificate fails: y must lie in the box with
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
