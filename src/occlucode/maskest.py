"""Occlusion mask estimation by iterated l1 error fitting and MRF support
updates.

Given an occluded image and a face basis (either the image's labeled
sub-dictionary or a locality-constrained dictionary built from its most
correlated atoms), the estimator alternates between fitting the face on
the currently supported pixels with an l1 error model and relabeling the
per-pixel support with a graph-cut step that trades data likelihood
against spatial smoothness. The final error restricted to occluded
pixels is the occlusion pattern.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import FACE, BlockedDictionary, ImageVector, OcclusionMask, stack_blocks
from .errors import BadHError, DegenerateError, DimMismatchError, ZeroPatternError
from .graphcut import grid_edges, maximize_grid_mrf, mrf_energy
from .imageio import write_pgm
from .solvers import l1_regression

DEFAULT_TAU_SCHEDULE = tuple(np.arange(0.005, 0.002 - 2.5e-4, -0.0005).round(6))


@dataclass
class MaskEstimatorConfig:
    h: int = 20  # atoms in the locality-constrained dictionary
    beta: float = 20.0  # smoothness weight
    tau_schedule: tuple = DEFAULT_TAU_SCHEDULE
    max_outer_iters: int = 20
    neighborhood: str = "4-connected"
    min_support_fraction: float = 0.05  # degenerate-solution floor

    def __post_init__(self):
        if self.h < 1:
            raise BadHError("h must be >= 1")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if not (0 <= self.min_support_fraction < 1):
            raise ValueError("min_support_fraction must lie in [0, 1)")
        taus = tuple(self.tau_schedule)
        if not taus or any(not (0 < t < 1) for t in taus):
            raise ValueError("tau schedule entries must lie in (0, 1)")
        if any(b >= a for a, b in zip(taus, taus[1:])):
            raise ValueError("tau schedule must be strictly decreasing")
        self.tau_schedule = taus


@dataclass
class MaskEstimate:
    mask: OcclusionMask
    pattern: ImageVector  # final error, zeroed on non-occluded pixels
    iterations: int


def build_lcd(u: ImageVector, dictionary: BlockedDictionary, h: int) -> BlockedDictionary:
    """Sub-dictionary of the h atoms with largest (signed) inner products.

    Columns are returned in descending order of correlation; ties break
    toward the lower column index.
    """
    if not (1 <= h <= dictionary.n):
        raise BadHError(f"h={h} out of range [1, {dictionary.n}]")
    if u.m != dictionary.m:
        raise DimMismatchError(f"u has m={u.m}, dictionary has m={dictionary.m}")
    psi = dictionary.atoms.T @ u.data
    order = np.argsort(-psi, kind="stable")[:h]
    return stack_blocks([("lcd", FACE, dictionary.atoms[:, order])])


def _data_terms(e: np.ndarray, tau: float):
    """Per-pixel log p(e | z) of the two-state error model, as (z=0, z=1)."""
    small = np.abs(e) <= tau
    log_tau = math.log(tau)
    theta1 = np.where(small, -log_tau, log_tau)
    theta0 = np.where(small, log_tau, 0.0)
    return theta0, theta1


def update_support(
    e: ImageVector, beta: float, tau: float, neighborhood: str = "4-connected"
) -> OcclusionMask:
    """Globally maximize the smoothness + log-likelihood objective over z."""
    h, w = e.shape
    theta0, theta1 = _data_terms(e.data, tau)
    edges = grid_edges(h, w, neighborhood)
    z = maximize_grid_mrf(theta0, theta1, beta, edges)
    return OcclusionMask(z, (h, w))


def support_energy(e: ImageVector, z: np.ndarray, beta: float, tau: float,
                   neighborhood: str = "4-connected") -> float:
    theta0, theta1 = _data_terms(e.data, tau)
    edges = grid_edges(*e.shape, neighborhood)
    return mrf_energy(z, theta0, theta1, beta, edges)


def estimate_mask(
    u: ImageVector,
    basis: BlockedDictionary,
    cfg: MaskEstimatorConfig,
    debug_dir: str | None = None,
) -> MaskEstimate:
    """Run the outer estimation loop until the support stabilizes.

    tau steps through the configured schedule, one entry per outer
    iteration, then holds its final value.
    """
    if u.m != basis.m:
        raise DimMismatchError(f"u has m={u.m}, basis has m={basis.m}")
    m = u.m
    taus = cfg.tau_schedule
    z = np.ones(m, dtype=np.int8)
    e_full = None
    it = 0
    for it in range(1, cfg.max_outer_iters + 1):
        tau = taus[min(it - 1, len(taus) - 1)]
        rows = z == 1
        x = l1_regression(basis.atoms[rows], u.data[rows])
        e_full = u.data - basis.atoms @ x
        z_new = update_support(ImageVector(e_full, u.shape), cfg.beta, tau,
                               cfg.neighborhood).support
        if debug_dir is not None:
            _dump_iteration(debug_dir, it, e_full, z_new, u.shape)
        if z_new.mean() < cfg.min_support_fraction:
            raise DegenerateError(
                f"support collapsed to {z_new.mean():.1%} of pixels"
            )
        converged = bool(np.array_equal(z_new, z))
        z = z_new
        if converged:
            break
    pattern = e_full.copy()
    pattern[z == 1] = 0.0
    return MaskEstimate(OcclusionMask(z, u.shape), ImageVector(pattern, u.shape), it)


def extract_pattern(est: MaskEstimate) -> ImageVector:
    """Final error restricted to occluded pixels, unit-normalized."""
    if np.all(est.mask.support == 1):
        raise ZeroPatternError("mask has no occluded pixels")
    p = est.pattern.data
    nrm = np.linalg.norm(p)
    if nrm < 1e-12:
        raise ZeroPatternError("occluded-region residual is numerically zero")
    return ImageVector(p / nrm, est.pattern.shape, normalized=True)


def _dump_iteration(debug_dir, it, e_full, z, shape):
    os.makedirs(debug_dir, exist_ok=True)
    err = np.abs(e_full)
    top = err.max() if err.max() > 0 else 1.0
    write_pgm(os.path.join(debug_dir, f"error_{it:02d}.pgm"),
              ImageVector(err / top, shape))
    write_pgm(os.path.join(debug_dir, f"support_{it:02d}.pgm"),
              ImageVector(z.astype(float), shape))
