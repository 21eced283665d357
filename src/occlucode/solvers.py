"""Convex sparse-coding solvers.

One residual-constrained block coder over a weighted partition of the
columns of a dictionary R:

    min sum_b c_b ||w_b||_2    s.t. ||u - R w||_2 <= eps

Group coding uses the dictionary's blocks, with weight c_b = 1 for face
blocks and lambda for occlusion blocks. Plain l1 (all weights 1) and the
weighted l1 of q_norm = 1 are its singleton-block cases. The problem is
solved by a monotone accelerated proximal-gradient scheme (MFISTA) on the
penalized form  mu * g(w) + 0.5 ||u - R w||^2  with an outer continuation
on mu that steers the residual into a thin window just below eps.

A second solver performs l1 error fitting (least absolute deviations),
used by the occlusion-mask estimator: min_x ||b - A x||_1 is solved as its
dual LP, max b^T y s.t. A^T y = 0, -1 <= y <= 1 (Barrodale & Roberts 1973),
and x is read from the equality multipliers. The dual objective bounds the
fit from below, so every fit carries its duality gap, which must vanish.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .core import FACE, BlockedDictionary, ImageVector, SparseCoefficients
from .errors import DegenerateError, DimMismatchError, RankDeficientWarning


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
    objective_trace: list = field(default_factory=list, repr=False)


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
    return np.sqrt(np.add.reduceat(v * v, starts))


def block_penalty(w, starts, weights) -> float:
    """sum_b c_b ||w_b||_2."""
    return float(weights @ _block_norms(w, starts))


def block_prox(v, t, starts, sizes, weights) -> np.ndarray:
    """Prox of t * block_penalty: shrink each block's norm by t * c_b.

    ``sizes`` are the block lengths. On singleton blocks this is soft
    thresholding at t * c_b."""
    norms = np.maximum(_block_norms(v, starts), _TINY)
    scale = np.maximum(0.0, 1.0 - t * weights / norms)
    return v * np.repeat(scale, sizes)


# ---------------------------------------------------------------------------
# penalized inner solver (monotone FISTA)


def _mfista(R, RtR, Rtu, u, w0, mu, step, prox, penalty, max_iters, tol):
    """Minimize mu*g(w) + 0.5||u - Rw||^2; returns (w, trace, iters)."""

    def total(w):
        r = u - R @ w
        return 0.5 * (r @ r) + mu * penalty(w)

    x = w0.copy()
    y = x.copy()
    t = 1.0
    fx = total(x)
    trace = [fx]
    it = 0
    for it in range(1, max_iters + 1):
        z = prox(y - step * (RtR @ y - Rtu), step * mu)
        fz = total(z)
        x_old = x
        if fz <= fx:
            x, fx = z, fz
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x + (t / t_new) * (z - x) + ((t - 1.0) / t_new) * (x - x_old)
        t = t_new
        trace.append(fx)
        # stationarity via the prox candidate: ||z - x_old|| vanishes only at
        # a fixed point, whereas x == x_old merely means a non-improving step
        dz = np.linalg.norm(z - x_old)
        if dz <= tol * max(1.0, np.linalg.norm(x)):
            break
    return x, trace, it


def _solve_bpdn(u, dictionary, cfg, starts, weights):
    """Continuation loop steering the residual into [frac*eps, eps]."""
    R = dictionary.atoms
    eps = cfg.epsilon
    u_norm = np.linalg.norm(u)
    ident = dictionary.fingerprint
    Rtu = R.T @ u
    # smallest mu for which w = 0 is optimal
    mu_max = float(np.max(_block_norms(Rtu, starts) / weights, initial=0.0))

    if u_norm <= eps or mu_max == 0.0:
        w = np.zeros(dictionary.n)
        return SolveReport(
            SparseCoefficients(w, ident), 0, float(u_norm), 0.0, True, [0.0]
        )

    RtR = R.T @ R
    step = 1.0 / max(np.linalg.eigvalsh(RtR)[-1], 1e-12)
    sizes = np.diff(starts, append=dictionary.n)

    def prox(v, t):
        return block_prox(v, t, starts, sizes, weights)

    def penalty(w):
        return block_penalty(w, starts, weights)

    # residual target window; eps = 0 means "as exact as the tolerance allows"
    hi = eps if eps > 0 else cfg.tol
    lo = cfg.resid_lower_frac * eps

    w = np.zeros(dictionary.n)
    total_iters = 0
    best = None  # (mu, w, resid, trace) with resid <= hi, largest mu seen
    log_hi = np.log10(mu_max)
    log_lo = log_hi - 14.0
    bracket = [log_lo, log_hi]
    mu = 10.0 ** (log_hi - 2.0)
    for _ in range(cfg.max_continuation):
        w, trace, it = _mfista(
            R, RtR, Rtu, u, w, mu, step, prox, penalty, cfg.max_iters, cfg.tol
        )
        total_iters += it
        resid = float(np.linalg.norm(u - R @ w))
        if resid <= hi:
            if best is None or mu > best[0]:
                best = (mu, w.copy(), resid, trace)
            if resid >= lo:
                break
            bracket[0] = np.log10(mu)  # residual too small -> raise mu
        else:
            bracket[1] = np.log10(mu)  # infeasible -> lower mu
        if bracket[1] - bracket[0] < 1e-3:
            break
        mu = 10.0 ** (0.5 * (bracket[0] + bracket[1]))

    if best is None:
        # never reached feasibility; report the last iterate honestly
        converged = resid <= hi + cfg.tol
    else:
        _, w, resid, trace = best
        converged = True
    return SolveReport(
        SparseCoefficients(w, ident), total_iters, resid, penalty(w), converged, trace
    )


def solve_l1_bpdn(
    u: ImageVector, dictionary: BlockedDictionary, cfg: SolverConfig
) -> SolveReport:
    """min ||w||_1 s.t. ||u - R w||_2 <= eps: singleton blocks of weight 1."""
    if u.m != dictionary.m:
        raise DimMismatchError(f"u has m={u.m}, dictionary has m={dictionary.m}")
    n = dictionary.n
    return _solve_bpdn(u.data, dictionary, cfg, np.arange(n), np.ones(n))


def solve_group_bpdn(
    u: ImageVector, dictionary: BlockedDictionary, cfg: SolverConfig
) -> SolveReport:
    """min sum_b c_b ||w_b||_q s.t. ||u - R w||_2 <= eps.

    Face blocks have weight 1, occlusion blocks weight lambda. q = 1 is
    the same weights spread over singleton blocks.
    """
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
    return _solve_bpdn(u.data, dictionary, cfg, starts, weights)


# ---------------------------------------------------------------------------
# l1 error fitting (least absolute deviations)


LAD_GAP_RTOL = 1e-9  # certified fits have |primal - dual| <= this * max(1, primal)


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


def lad_fit(A: np.ndarray, b: np.ndarray) -> LadFit:
    """argmin_x ||b - A x||_1 through its dual LP

        max b^T y  s.t.  A^T y = 0,  -1 <= y <= 1

    whose equality multipliers are -x. Raises DegenerateError when the LP
    fails or the duality gap exceeds LAD_GAP_RTOL relative to the fit."""
    # at HiGHS's default dual feasibility tolerance (1e-7) some mask fits
    # stop at a vertex ~1e-8 short of the optimum; at 1e-10 the largest
    # relative gap over 3,300 of them was 1.2e-12
    res = linprog(-b, A_eq=A.T, b_eq=np.zeros(A.shape[1]), bounds=(-1, 1),
                  method="highs", options={"dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise DegenerateError(f"l1 regression LP failed: {res.message}")
    x = -res.eqlin.marginals
    fit = LadFit(x, res.x, float(np.abs(b - A @ x).sum()), float(b @ res.x))
    if not abs(fit.gap) <= LAD_GAP_RTOL * max(1.0, fit.primal):
        raise DegenerateError(
            f"l1 regression duality gap {fit.gap:.3g} at objective {fit.primal:.6g}"
        )
    return fit


def l1_regression(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin_x ||b - A x||_1, certified by lad_fit's duality gap."""
    return lad_fit(A, b).x


def solve_l1_error(
    u: ImageVector, dict_small: BlockedDictionary
) -> tuple[SparseCoefficients, ImageVector]:
    """min ||e||_1 s.t. u = D x + e  (exact decomposition, minimal l1 error)."""
    if u.m != dict_small.m:
        raise DimMismatchError(f"u has m={u.m}, dictionary has m={dict_small.m}")
    D = dict_small.atoms
    if np.linalg.matrix_rank(D) < D.shape[1]:
        warnings.warn(
            "dictionary columns are linearly dependent; solution is one "
            "minimizer among many",
            RankDeficientWarning,
        )
    x = l1_regression(D, u.data)
    e = u.data - D @ x  # exact by construction
    return (
        SparseCoefficients(x, dict_small.fingerprint),
        ImageVector(e, u.shape),
    )
