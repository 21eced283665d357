"""Occlusion sample collection and K-SVD compression.

Three collection strategies produce candidate occlusion patterns from
occluded gallery images:

  soc   -- mask-based: estimate the occlusion mask, keep the residual on
           occluded pixels only (labeled basis or LCD fallback)
  ssrc  -- orthogonal-projection residual of the whole image
  esrc  -- difference from the sub-dictionary centroid

The collected samples are redundant; K-SVD compresses them into a small
single-block occlusion dictionary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    OCCLUSION,
    Block,
    BlockedDictionary,
    ImageVector,
    normalize_vector,
)
from .errors import EmptySamplesError, RankDeficientWarning
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
        if np.max(np.abs(norms - 1.0)) > 1e-9:
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
) -> ImageVector:
    """Mask-based occlusion pattern; uses the labeled sub-dictionary when a
    label is known, otherwise a locality-constrained dictionary."""
    u = normalize_vector(u)
    if label is not None:
        basis = dictionary.subdict(label)
    else:
        basis = build_lcd(u, dictionary, cfg.h)
    est = estimate_mask(u, basis, cfg)
    return extract_pattern(u, basis, est)


def collect_ssrc(u: ImageVector, sub: BlockedDictionary) -> ImageVector:
    """Normalized orthogonal-projection residual of u onto span(sub)."""
    u = normalize_vector(u)
    D = sub.atoms
    if np.linalg.matrix_rank(D) < D.shape[1]:
        warnings.warn("sub-dictionary is rank deficient; using pseudo-inverse",
                      RankDeficientWarning)
    coef, *_ = np.linalg.lstsq(D, u.data, rcond=None)
    resid = u.data - D @ coef
    return _normalize_or_zero(resid, u.shape)


def collect_esrc(u: ImageVector, sub: BlockedDictionary) -> ImageVector:
    """Normalized difference between u and the column centroid of sub."""
    u = normalize_vector(u)
    centroid = sub.atoms.mean(axis=1)
    return _normalize_or_zero(u.data - centroid, u.shape)


def _normalize_or_zero(v: np.ndarray, shape) -> ImageVector:
    nrm = np.linalg.norm(v)
    if nrm < SAMPLE_DROP_TOL:
        return ImageVector(np.zeros_like(v), shape)
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


def _sparse_code_l1(D, s, budget, prev_code, tol=1e-10):
    """l1-penalized code, truncated to the budget largest entries and
    least-squares refit on that support; never worse than prev_code."""
    DtD = D.T @ D
    Dts = D.T @ s
    L = max(np.linalg.eigvalsh(DtD)[-1], 1e-12)
    mu = 0.1 * np.max(np.abs(Dts), initial=0.0)
    a = np.zeros(D.shape[1])
    if mu > 0:
        step = 1.0 / L
        for _ in range(200):
            g = DtD @ a - Dts
            a_new = np.sign(a - step * g) * np.maximum(
                np.abs(a - step * g) - step * mu, 0.0
            )
            if np.linalg.norm(a_new - a) <= tol * max(1.0, np.linalg.norm(a)):
                a = a_new
                break
            a = a_new
    support = np.argsort(-np.abs(a), kind="stable")[:budget]
    support = support[np.abs(a[support]) > 0]
    refit = np.zeros(D.shape[1])
    if support.size:
        sol, *_ = np.linalg.lstsq(D[:, support], s, rcond=None)
        refit[support] = sol
    # monotonicity guard: keep whichever code represents s better
    if np.linalg.norm(s - D @ refit) <= np.linalg.norm(s - D @ prev_code):
        return refit
    return prev_code


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
        for j in range(p):
            A[:, j] = _sparse_code_l1(D, S[:, j], cfg.sparsity_budget, A[:, j])
        for k in range(K):
            users = A[k] != 0.0
            if not np.any(users):
                # dead atom: adopt the worst-represented sample; the swap is
                # error-neutral because the code row is all zero
                errs = np.linalg.norm(S - D @ A, axis=0)
                worst = int(np.argmax(errs))
                v = S[:, worst]
                D[:, k] = v * _fix_sign(v) / np.linalg.norm(v)
                continue
            E = S[:, users] - D @ A[:, users] + np.outer(D[:, k], A[k, users])
            U, sv, Vt = np.linalg.svd(E, full_matrices=False)
            sgn = _fix_sign(U[:, 0])
            D[:, k] = U[:, 0] * sgn
            A[k, users] = sv[0] * Vt[0] * sgn
        trace.append(float(np.linalg.norm(S - D @ A)))
    blocks = (Block(sample_set.category, OCCLUSION, 0, K),)
    return BlockedDictionary(D, blocks), trace


def ksvd_train(sample_set: OcclusionSampleSet, cfg: KsvdConfig) -> BlockedDictionary:
    dictionary, _ = ksvd_train_with_trace(sample_set, cfg)
    return dictionary


def spectrum(sample_set: OcclusionSampleSet) -> np.ndarray:
    """Descending eigenvalues of the sample Gram matrix."""
    gram = sample_set.samples.T @ sample_set.samples
    vals = np.linalg.eigvalsh(gram)[::-1]
    return np.maximum(vals, 0.0)
