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

from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    FACE,
    OCCLUSION,
    BlockedDictionary,
    ClassificationOutcome,
    ImageVector,
    normalize_vector,
    stack_blocks,
)
from .errors import DegenerateError, DimMismatchError
from .solvers import (
    SolveReport,
    SolverConfig,
    solve_group_bpdn,
    solve_group_bpdn_many,
    solve_l1_bpdn,
    solve_l1_bpdn_many,
)

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
    groups, ms = [], set()
    for group, kind in ((face_dicts, FACE), (occ_dicts, OCCLUSION)):
        for d in group:
            ms.add(d.m)
            if len(ms) > 1:
                raise DimMismatchError(f"inconsistent feature dimensions {sorted(ms)}")
            for b in d.blocks:
                if b.kind != kind:
                    raise ValueError(
                        f"block {b.label!r} has kind {b.kind}, expected {kind}"
                    )
                groups.append((b.label, kind, d.atoms[:, b.cols]))
    if not groups:
        raise DimMismatchError("no dictionaries to concatenate")
    return stack_blocks(groups)


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


def _label(residuals, theta):
    """(label, RDI) of one side: the first block with the smallest residual,
    or REJECTED when the RDI exceeds theta. An RDI that is undefined (one
    block, or all residuals zero) is NaN and never rejects."""
    # dicts keep block order, so the first minimum is the deterministic pick
    label = min(residuals, key=residuals.get)
    try:
        index = rdi(residuals)
    except DegenerateError:
        return label, float("nan")
    return (ClassificationOutcome.REJECTED if index > theta else label), index


def _prepare(us, R):
    """The unit-norm vectors of us, once R is known to have face blocks."""
    us = [normalize_vector(u) for u in us]
    if not R.face_blocks:
        raise DimMismatchError("compound dictionary has no face blocks")
    return us


def classify(
    u: ImageVector, R: BlockedDictionary, cfg: ClassifierConfig
) -> ClassificationOutcome:
    """Code u over the compound dictionary and label face and occlusion."""
    [u] = _prepare([u], R)
    solve = solve_group_bpdn if cfg.sparsity_mode == STRUCTURED else solve_l1_bpdn
    return _decide(u, R, solve(u, R, cfg.solver), cfg)


def classify_many(
    us: list[ImageVector], R: BlockedDictionary, cfg: ClassifierConfig
) -> list[ClassificationOutcome]:
    """classify of each of us, with all of them coded together over R."""
    us = _prepare(us, R)
    solve = solve_group_bpdn_many if cfg.sparsity_mode == STRUCTURED else solve_l1_bpdn_many
    return [_decide(u, R, report, cfg) for u, report in zip(us, solve(us, R, cfg.solver))]


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
    face_label, rdi_face = _label(face_res, cfg.theta_face)

    occ_res = {}
    occ_label = ClassificationOutcome.NONE
    rdi_occ = float("nan")
    if len(occ_blocks) >= 2:
        occ_res = _residuals(u.data - face_parts.sum(axis=1), occ_parts, occ_blocks)
        occ_label, rdi_occ = _label(occ_res, cfg.theta_occlusion)

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
        status=report.status,
    )


def with_identity_block(D: BlockedDictionary) -> BlockedDictionary:
    """Append an m x m identity occlusion block (the generic pixel-wise
    occlusion model)."""
    return build_compound([D], [stack_blocks([(IDENTITY_LABEL, OCCLUSION, np.eye(D.m))])])


def classify_src_baseline(
    u: ImageVector, D: BlockedDictionary, cfg: ClassifierConfig
) -> ClassificationOutcome:
    """Baseline classifier: classify in l1 mode over [D, I], the gallery
    and an identity occlusion block."""
    if not cfg.baseline_identity_occlusion:
        raise ValueError("baseline mode requires baseline_identity_occlusion=True")
    return classify(u, with_identity_block(D), replace(cfg, sparsity_mode=L1))
