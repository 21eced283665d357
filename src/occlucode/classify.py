"""Compound-dictionary classification and residual-based rejection.

A test image is coded over R = [D, B] (face blocks then occlusion
blocks) with either plain l1 or block-structured sparsity. Faces are
labeled by the minimal residual after subtracting the full occlusion
reconstruction, occlusions by the minimal residual after subtracting the
full face reconstruction. Uniform residual distributions indicate an
input that matches nothing in the dictionary; the residual distribution
index (k * min / sum) drives rejection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    FACE,
    OCCLUSION,
    Block,
    BlockedDictionary,
    ClassificationOutcome,
    ImageVector,
    normalize_vector,
)
from .errors import DegenerateError, DimMismatchError
from .solvers import SolveReport, SolverConfig, solve_group_bpdn, solve_l1_bpdn

L1 = "l1"
STRUCTURED = "structured"
IDENTITY_LABEL = "identity"


@dataclass
class ClassifierConfig:
    sparsity_mode: str = STRUCTURED
    solver: SolverConfig = field(default_factory=SolverConfig)
    theta_face: float = 0.9
    theta_occlusion: float = 0.9
    baseline_identity_occlusion: bool = False

    def __post_init__(self):
        if self.sparsity_mode not in (L1, STRUCTURED):
            raise ValueError(f"unknown sparsity mode {self.sparsity_mode!r}")
        for theta in (self.theta_face, self.theta_occlusion):
            if not (0 < theta <= 1):
                raise ValueError("theta thresholds must lie in (0, 1]")


def build_compound(face_dicts, occ_dicts) -> BlockedDictionary:
    """Concatenate face sub-dictionaries and occlusion sub-dictionaries
    into a single blocked dictionary R = [D, B]."""
    mats, blocks = [], []
    offset = 0
    ms = set()
    for group, kind in ((face_dicts, FACE), (occ_dicts, OCCLUSION)):
        for d in group:
            ms.add(d.m)
            if len(ms) > 1:
                raise DimMismatchError(f"inconsistent feature dimensions {sorted(ms)}")
            mats.append(d.atoms)
            for b in d.blocks:
                if b.kind != kind:
                    raise ValueError(
                        f"block {b.label!r} has kind {b.kind}, expected {kind}"
                    )
                blocks.append(Block(b.label, kind, offset + b.start, offset + b.stop))
            offset += d.n
    if not mats:
        raise DimMismatchError("no dictionaries to concatenate")
    return BlockedDictionary(np.concatenate(mats, axis=1), tuple(blocks))


def rdi(residuals: dict) -> float:
    """Residual distribution index: k * min / sum, in (0, 1]."""
    k = len(residuals)
    if k < 2:
        raise DegenerateError("RDI needs at least two residuals")
    vals = np.array(list(residuals.values()), dtype=float)
    if np.any(vals < 0):
        raise ValueError("residuals must be nonnegative")
    total = vals.sum()
    if total == 0.0:
        raise DegenerateError("all residuals are zero")
    return float(k * vals.min() / total)


def _residuals(target, parts, blocks):
    """{label: ||target - parts[:, b]||} over the blocks, in block order."""
    norms = np.linalg.norm(target[:, None] - parts, axis=0)
    return {b.label: r for b, r in zip(blocks, norms.tolist())}


def _argmin_label(residuals_by_label):
    # dicts keep block order, so the first minimum is the deterministic pick
    return min(residuals_by_label, key=residuals_by_label.get)


def _safe_rdi(residuals_by_label):
    try:
        return rdi(residuals_by_label)
    except DegenerateError:
        return float("nan")


def classify(
    u: ImageVector, R: BlockedDictionary, cfg: ClassifierConfig
) -> ClassificationOutcome:
    """Code u over the compound dictionary and label face and occlusion."""
    u = normalize_vector(u)
    if not R.face_blocks:
        raise DimMismatchError("compound dictionary has no face blocks")
    if cfg.sparsity_mode == STRUCTURED:
        report = solve_group_bpdn(u, R, cfg.solver)
    else:
        report = solve_l1_bpdn(u, R, cfg.solver)
    return _decide(u, R, report, cfg)


def _decide(u, R, report: SolveReport, cfg) -> ClassificationOutcome:
    coef = report.coefficients
    face_blocks = R.face_blocks
    occ_blocks = R.occlusion_blocks
    # column b is block b's partial reconstruction R_b w_b; a candidate's
    # residual keeps it and every block of the other side
    parts = np.add.reduceat(R.atoms * coef.values, R.starts, axis=1)
    face_parts = parts[:, : len(face_blocks)]
    occ_parts = parts[:, len(face_blocks) :]

    face_res = _residuals(u.data - occ_parts.sum(axis=1), face_parts, face_blocks)
    face_label = _argmin_label(face_res)
    rdi_face = _safe_rdi(face_res)
    if np.isfinite(rdi_face) and rdi_face > cfg.theta_face:
        face_label = ClassificationOutcome.REJECTED

    occ_res = {}
    occ_label = ClassificationOutcome.NONE
    rdi_occ = float("nan")
    if len(occ_blocks) >= 2:
        occ_res = _residuals(u.data - face_parts.sum(axis=1), occ_parts, occ_blocks)
        occ_label = _argmin_label(occ_res)
        rdi_occ = _safe_rdi(occ_res)
        if np.isfinite(rdi_occ) and rdi_occ > cfg.theta_occlusion:
            occ_label = ClassificationOutcome.REJECTED

    return ClassificationOutcome(
        face_label=face_label,
        occlusion_label=occ_label,
        face_residuals=face_res,
        occlusion_residuals=occ_res,
        rdi_face=rdi_face,
        rdi_occlusion=rdi_occ,
        coefficients=coef,
        iterations=report.iterations,
        converged=report.converged,
    )


def with_identity_block(D: BlockedDictionary) -> BlockedDictionary:
    """Append an m x m identity occlusion block (the generic pixel-wise
    occlusion model)."""
    eye = BlockedDictionary(
        np.eye(D.m), (Block(IDENTITY_LABEL, OCCLUSION, 0, D.m),)
    )
    return build_compound([D], [eye])


def classify_src_baseline(
    u: ImageVector, D: BlockedDictionary, cfg: ClassifierConfig
) -> ClassificationOutcome:
    """Baseline classifier coding over [D, I] with plain l1 sparsity."""
    if not cfg.baseline_identity_occlusion:
        raise ValueError("baseline mode requires baseline_identity_occlusion=True")
    u = normalize_vector(u)
    R = with_identity_block(D)
    report = solve_l1_bpdn(u, R, cfg.solver)
    return _decide(u, R, report, cfg)
