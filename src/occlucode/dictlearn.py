"""Occlusion sample collection and K-SVD compression.

Three collection strategies produce candidate occlusion patterns from
occluded gallery images:

  soc   -- mask-based: estimate the occlusion mask, keep the residual on
           occluded pixels only (labeled basis or LCD fallback)
  ssrc  -- orthogonal-projection residual of the whole image
  esrc  -- difference from the sub-dictionary centroid

An image with no pattern raises ZeroPatternError: under soc, a mask with no
occluded pixels; under ssrc and esrc, a residual of norm below SAMPLE_DROP_TOL.

The collected samples are redundant; K-SVD compresses them into a small
single-block occlusion dictionary. Its coding step is orthogonal matching
pursuit at the exact sparsity budget, run as lockstep Batch-OMP (Rubinstein,
Zibulevsky & Elad, "Efficient implementation of the K-SVD algorithm using
Batch OMP", Technion CS-2008-08): every sample picks its atoms at once from
the correlations D^T S - G A, with G = D^T D and D^T S formed once per
iteration, and refits on the Gram matrix of its support. A sample keeps its
previous code when that represents it better, so the representation error
never increases.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    NORM_TOL,
    OCCLUSION,
    BlockedDictionary,
    ImageVector,
    normalize_vector,
    stack_blocks,
)
from .errors import EmptySamplesError, RankDeficientWarning, ZeroPatternError
from .maskest import MaskEstimatorConfig, build_lcd, estimate_mask, extract_pattern

SAMPLE_DROP_TOL = 1e-6


@dataclass(frozen=True)
class OcclusionSampleSet:
    samples: np.ndarray  # (m, p), unit-norm columns
    category: str
    strategy: str  # soc | ssrc | esrc
    labeled: bool

    def __post_init__(self):
        s = np.ascontiguousarray(self.samples, dtype=np.float64)
        if s.ndim != 2 or s.shape[1] < 1:
            raise EmptySamplesError("need at least one sample column")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        norms = np.linalg.norm(s, axis=0)
        if np.max(np.abs(norms - 1.0)) > NORM_TOL:
            raise ValueError("sample columns must be unit-norm")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def m(self) -> int:
        return self.samples.shape[0]

    @property
    def p(self) -> int:
        return self.samples.shape[1]


@dataclass
class KsvdConfig:
    atom_count: int = 30
    sparsity_budget: int = 4
    iterations: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.atom_count < 1 or self.sparsity_budget < 1:
            raise ValueError("atom_count and sparsity_budget must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")


# ---------------------------------------------------------------------------
# sample collection


def collect_soc(
    u: ImageVector,
    dictionary: BlockedDictionary,
    label: str | None,
    cfg: MaskEstimatorConfig,
    debug_dir: str | None = None,
) -> ImageVector:
    """Mask-based occlusion pattern; uses the labeled sub-dictionary when a
    label is known, otherwise a locality-constrained dictionary. With a
    debug_dir, the mask estimator dumps each iteration there."""
    u = normalize_vector(u)
    if label is not None:
        basis = dictionary.subdict(label)
    else:
        basis = build_lcd(u, dictionary, cfg.h)
    est = estimate_mask(u, basis, cfg, debug_dir=debug_dir)
    return extract_pattern(est)


def collect_ssrc(u: ImageVector, sub: BlockedDictionary) -> ImageVector:
    """Normalized orthogonal-projection residual of u onto span(sub)."""
    u = normalize_vector(u)
    D = sub.atoms
    coef, _, rank, _ = np.linalg.lstsq(D, u.data, rcond=None)
    if rank < D.shape[1]:
        warnings.warn("sub-dictionary is rank deficient; using pseudo-inverse",
                      RankDeficientWarning)
    resid = u.data - D @ coef
    return _unit_sample(resid, u.shape)


def collect_esrc(u: ImageVector, sub: BlockedDictionary) -> ImageVector:
    """Normalized difference between u and the column centroid of sub."""
    u = normalize_vector(u)
    centroid = sub.atoms.mean(axis=1)
    return _unit_sample(u.data - centroid, u.shape)


def _unit_sample(v: np.ndarray, shape) -> ImageVector:
    nrm = np.linalg.norm(v)
    if nrm < SAMPLE_DROP_TOL:
        tol = np.format_float_scientific(SAMPLE_DROP_TOL, trim="-", exp_digits=1)
        raise ZeroPatternError(f"norm below {tol}")
    return ImageVector(v / nrm, shape, normalized=True)


def build_sample_set(
    patterns: list[ImageVector], category: str, strategy: str, labeled: bool
) -> OcclusionSampleSet:
    """Stack collected patterns, dropping near-zero ones with a warning."""
    kept = []
    dropped = 0
    for p in patterns:
        nrm = np.linalg.norm(p.data)
        if nrm < SAMPLE_DROP_TOL:
            dropped += 1
            continue
        kept.append(p.data / nrm)
    if dropped:
        warnings.warn(f"dropped {dropped} near-zero occlusion sample(s)")
    if not kept:
        raise EmptySamplesError("all candidate samples were near zero")
    return OcclusionSampleSet(np.stack(kept, axis=1), category, strategy, labeled)


# ---------------------------------------------------------------------------
# K-SVD


def _fix_sign(v: np.ndarray) -> float:
    """Sign that makes the largest-magnitude entry positive."""
    j = int(np.argmax(np.abs(v)))
    return -1.0 if v[j] < 0 else 1.0


def _omp_codes(D, S, budget, prev):
    """Orthogonal matching pursuit of every column of S in lockstep
    (Batch-OMP): each column picks up to `budget` atoms, each the one most
    correlated with its residual, D^T S - G A, and after every pick refits
    its code a on its support by solving G_SS a = (D^T s)_S; a column keeps
    its code in prev when that represents it better."""
    K, p = D.shape[1], S.shape[1]
    G, DtS = D.T @ D, D.T @ S
    A = np.zeros((K, p))
    support = np.zeros((p, 0), dtype=int)
    live = np.arange(p)
    # a column stops once no atom left correlates with its residual beyond
    # rounding: an atom picked for rounding noise gets a ~1e-14 code entry,
    # and K-SVD's dead-atom test reads every nonzero entry
    floor = 1e-10 * np.linalg.norm(S, axis=0)
    for _ in range(min(budget, K)):
        corr, cols = np.abs(DtS[:, live] - G @ A[:, live]), np.arange(len(live))
        corr[support.T, cols] = 0.0  # zero in exact arithmetic; rounding must not re-pick
        j = np.argmax(corr, axis=0)
        go = corr[j, cols] > floor[live]
        live, support = live[go], np.column_stack((support[go], j[go]))
        if not len(live):
            break
        G_SS = G[support[:, :, None], support[:, None, :]]
        rhs = DtS[support, live[:, None]]
        A[support, live[:, None]] = np.linalg.solve(G_SS, rhs[..., None])[..., 0]
    # monotonicity guard: each column keeps whichever code represents it better
    better = np.linalg.norm(S - D @ A, axis=0) <= np.linalg.norm(S - D @ prev, axis=0)
    return np.where(better, A, prev)


def ksvd_train_with_trace(
    sample_set: OcclusionSampleSet, cfg: KsvdConfig
) -> tuple[BlockedDictionary, list[float]]:
    """K-SVD compression; returns the dictionary and the per-iteration
    Frobenius representation-error trace (non-increasing)."""
    S = sample_set.samples
    m, p = S.shape
    K = cfg.atom_count
    if K > p:
        raise EmptySamplesError(f"atom_count {K} exceeds sample count {p}")
    rng = np.random.default_rng(cfg.seed)
    init_cols = rng.choice(p, size=K, replace=False)
    D = S[:, init_cols].copy()
    D *= np.array([_fix_sign(D[:, k]) for k in range(K)])
    D /= np.linalg.norm(D, axis=0)
    A = np.zeros((K, p))

    trace = []
    for _ in range(cfg.iterations):
        A = _omp_codes(D, S, cfg.sparsity_budget, A)
        for k in range(K):
            users = A[k] != 0.0
            if not np.any(users):
                # dead atom: adopt the worst-represented sample, the first of
                # those tied up to rounding; the swap is error-neutral because
                # the code row is all zero
                errs = np.linalg.norm(S - D @ A, axis=0)
                worst = int(np.argmax(errs >= errs.max() * (1.0 - 1e-12)))
                v = S[:, worst]
                D[:, k] = v * _fix_sign(v) / np.linalg.norm(v)
                continue
            E = S[:, users] - D @ A[:, users] + np.outer(D[:, k], A[k, users])
            U, sv, Vt = np.linalg.svd(E, full_matrices=False)
            sgn = _fix_sign(U[:, 0])
            D[:, k] = U[:, 0] * sgn
            A[k, users] = sv[0] * Vt[0] * sgn
        trace.append(float(np.linalg.norm(S - D @ A)))
    return stack_blocks([(sample_set.category, OCCLUSION, D)]), trace


def ksvd_train(sample_set: OcclusionSampleSet, cfg: KsvdConfig) -> BlockedDictionary:
    dictionary, _ = ksvd_train_with_trace(sample_set, cfg)
    return dictionary


def spectrum(sample_set: OcclusionSampleSet) -> np.ndarray:
    """Descending eigenvalues of the sample Gram matrix."""
    gram = sample_set.samples.T @ sample_set.samples
    vals = np.linalg.eigvalsh(gram)[::-1]
    return np.maximum(vals, 0.0)
