"""Compound-dictionary classification, RDI rejection, and the SRC baseline."""

import numpy as np
import pytest

from occlucode import (
    Block,
    BlockedDictionary,
    ClassificationOutcome,
    ClassifierConfig,
    ImageVector,
    OcclusionShape,
    SolverConfig,
    SynthSpec,
    apply_occlusion,
    build_compound,
    classify,
    classify_src_baseline,
    generate_gallery,
    normalize_vector,
    rdi,
    residual,
    solve_group_bpdn,
    solve_l1_bpdn,
    with_identity_block,
)
from occlucode.core import FACE, OCCLUSION, normalize_columns
from occlucode.errors import DegenerateError, DimMismatchError

from conftest import random_dictionary


def occ_dictionary(rng, m, n, label="occ"):
    from conftest import random_dictionary as rd

    return rd(rng, m, n, [(label, n)], kind=OCCLUSION)


# ---------------------------------------------------------------------------
# build_compound


def test_build_compound_block_order(rng):
    d = random_dictionary(rng, 8, 4, [("c1", 2), ("c2", 2)])
    b = occ_dictionary(rng, 8, 3)
    r = build_compound([d], [b])
    assert [blk.label for blk in r.blocks] == ["c1", "c2", "occ"]
    assert [blk.kind for blk in r.blocks] == [FACE, FACE, OCCLUSION]
    assert r.n == 7


def test_build_compound_empty_occlusion_is_plain_dict(rng):
    d = random_dictionary(rng, 8, 4, [("c1", 2), ("c2", 2)])
    r = build_compound([d], [])
    assert np.array_equal(r.atoms, d.atoms)
    assert r.occlusion_blocks == ()


def test_build_compound_block_offsets(rng):
    # gallery-scale layout: 700 face atoms, then 50 + 50 occlusion atoms
    d = random_dictionary(rng, 40, 700, [(f"c{i}", 7) for i in range(100)])
    b1 = occ_dictionary(rng, 40, 50, "sunglasses")
    b2 = occ_dictionary(rng, 40, 50, "scarf")
    r = build_compound([d], [b1, b2])
    sg = r.block("sunglasses")
    sc = r.block("scarf")
    assert (sg.start, sg.stop) == (700, 750)
    assert (sc.start, sc.stop) == (750, 800)


def test_build_compound_dim_mismatch(rng):
    d = random_dictionary(rng, 8, 2)
    b = occ_dictionary(rng, 9, 2)
    with pytest.raises(DimMismatchError):
        build_compound([d], [b])


def test_build_compound_kind_enforced(rng):
    d = random_dictionary(rng, 8, 2)
    with pytest.raises(ValueError):
        build_compound([], [d])  # face-kind blocks in the occlusion slot


# ---------------------------------------------------------------------------
# rdi


def test_rdi_uniform_is_one():
    assert rdi({"a": 1.0, "b": 1.0, "c": 1.0}) == pytest.approx(1.0)


def test_rdi_perfect_match_is_zero():
    assert rdi({"a": 0.0, "b": 1.0}) == pytest.approx(0.0)


def test_rdi_arithmetic():
    assert rdi({"a": 0.2, "b": 0.5, "c": 0.5}) == pytest.approx(3 * 0.2 / 1.2)


def test_rdi_scale_invariant(rng):
    vals = dict(zip("abcd", rng.uniform(0.1, 1.0, 4)))
    scaled = {k: 7.3 * v for k, v in vals.items()}
    assert rdi(vals) == pytest.approx(rdi(scaled))


def test_rdi_degenerate_cases():
    with pytest.raises(DegenerateError):
        rdi({"a": 1.0})
    with pytest.raises(DegenerateError):
        rdi({"a": 0.0, "b": 0.0})


# ---------------------------------------------------------------------------
# classify


def _clean_gallery(seed=0):
    spec = SynthSpec(
        classes=5,
        samples_per_class=4,
        height=12,
        width=10,
        subspace_dim=2,
        noise_sigma=0.0,
        seed=seed,
    )
    return spec, *generate_gallery(spec)


def test_classify_exact_atom_no_occlusion():
    spec, train, test = _clean_gallery()
    u = ImageVector(train.atoms[:, 0], (12, 10), normalized=True)
    cfg = ClassifierConfig(solver=SolverConfig(epsilon=0.01))
    out = classify(u, train, cfg)
    assert out.face_label == train.blocks[0].label
    assert out.face_residuals[out.face_label] < 0.02
    assert out.occlusion_label == ClassificationOutcome.NONE


def test_classify_residuals_recompute(rng):
    spec, train, test = _clean_gallery(seed=3)
    b = occ_dictionary(rng, 120, 4)
    R = build_compound([train], [b])
    u = normalize_vector(test[0][0])
    cfg = ClassifierConfig(solver=SolverConfig(epsilon=0.05))
    out = classify(u, R, cfg)
    occ_labels = {blk.label for blk in R.occlusion_blocks}
    for label, r in out.face_residuals.items():
        direct = residual(u, R, out.coefficients, {label} | occ_labels)
        assert r == pytest.approx(direct, abs=1e-9)


def test_classify_argmin_consistency():
    spec, train, test = _clean_gallery(seed=1)
    u = normalize_vector(test[3][0])
    out = classify(u, train, ClassifierConfig(solver=SolverConfig(epsilon=0.03)))
    if out.face_label != ClassificationOutcome.REJECTED:
        best = min(out.face_residuals, key=out.face_residuals.get)
        assert out.face_label == best


def test_classify_test_images_correct():
    spec, train, test = _clean_gallery(seed=2)
    cfg = ClassifierConfig(solver=SolverConfig(epsilon=0.03))
    hits = sum(
        classify(normalize_vector(v), train, cfg).face_label == label
        for v, label in test[:10]
    )
    assert hits >= 9


def test_classify_rejects_uniform_input(rng):
    spec, train, test = _clean_gallery(seed=4)
    junk = normalize_vector(ImageVector(rng.uniform(size=120), (12, 10)))
    cfg = ClassifierConfig(
        solver=SolverConfig(epsilon=0.05), theta_face=0.5
    )
    out = classify(junk, train, cfg)
    # random texture matches no class strongly; RDI should be high
    assert out.rdi_face > 0.5
    assert out.face_label == ClassificationOutcome.REJECTED


def test_classify_structured_block_exclusive_orthogonal():
    # orthogonal face blocks, u in one block's span, eps=0 -> one active block
    atoms = np.eye(8)
    d = BlockedDictionary(
        atoms,
        (Block("a", FACE, 0, 4), Block("b", FACE, 4, 8)),
    )
    u = ImageVector(np.eye(8)[1], (2, 4), normalized=True)
    cfg = ClassifierConfig(
        sparsity_mode="structured", solver=SolverConfig(epsilon=0.0, lam=1.0)
    )
    out = classify(u, d, cfg)
    w = out.coefficients.values
    assert np.max(np.abs(w[4:])) < 1e-8
    assert out.face_label == "a"


@pytest.mark.parametrize("mode", ["structured", "l1", "src"])
@pytest.mark.parametrize("max_iters, converged", [(2000, True), (5, False)])
def test_outcome_carries_solve_stats(rng, mode, max_iters, converged):
    spec, train, test = _clean_gallery(seed=3)
    R = build_compound([train], [occ_dictionary(rng, 120, 4)])
    u = normalize_vector(test[0][0])
    solver = SolverConfig(epsilon=0.05, max_iters=max_iters, max_continuation=3)
    if mode == "src":
        cfg = ClassifierConfig(
            sparsity_mode="l1", solver=solver, baseline_identity_occlusion=True
        )
        out = classify_src_baseline(u, train, cfg)
        rep = solve_l1_bpdn(u, with_identity_block(train), solver)
    else:
        out = classify(u, R, ClassifierConfig(sparsity_mode=mode, solver=solver))
        solve = solve_group_bpdn if mode == "structured" else solve_l1_bpdn
        rep = solve(u, R, solver)
    assert rep.converged is converged
    assert (out.iterations, out.converged) == (rep.iterations, rep.converged)
    assert out.iterations > 0
    assert np.array_equal(out.coefficients.values, rep.coefficients.values)


def test_classify_requires_face_blocks(rng):
    b = occ_dictionary(rng, 8, 3)
    u = normalize_vector(ImageVector(rng.standard_normal(8), (2, 4)))
    with pytest.raises(DimMismatchError):
        classify(u, b, ClassifierConfig())


# ---------------------------------------------------------------------------
# SRC baseline


def test_src_baseline_clean_image():
    spec, train, test = _clean_gallery(seed=5)
    v, label = test[0]
    cfg = ClassifierConfig(
        sparsity_mode="l1",
        solver=SolverConfig(epsilon=0.03),
        baseline_identity_occlusion=True,
    )
    out = classify_src_baseline(normalize_vector(v), train, cfg)
    assert out.face_label == label
    # identity block barely used on clean input
    ident_cols = slice(train.n, train.n + train.m)
    assert np.abs(out.coefficients.values[ident_cols]).sum() < 0.1


def test_src_baseline_single_pixel_corruption():
    spec, train, test = _clean_gallery(seed=6)
    v, label = test[1]
    data = v.data.copy()
    data[37] = min(data[37] + 0.5, 1.0)
    u = normalize_vector(ImageVector(data, v.shape))
    cfg = ClassifierConfig(
        sparsity_mode="l1",
        solver=SolverConfig(epsilon=0.03),
        baseline_identity_occlusion=True,
    )
    out = classify_src_baseline(u, train, cfg)
    assert out.face_label == label
    w_ident = out.coefficients.values[train.n :]
    assert int(np.argmax(np.abs(w_ident))) == 37  # spike absorbed there


def test_src_baseline_requires_flag(rng):
    d = random_dictionary(rng, 8, 4, [("c1", 4)])
    u = normalize_vector(ImageVector(rng.uniform(0.1, 1, 8), (2, 4)))
    with pytest.raises(ValueError):
        classify_src_baseline(u, d, ClassifierConfig())


def test_with_identity_block(rng):
    d = random_dictionary(rng, 6, 4, [("c1", 4)])
    r = with_identity_block(d)
    assert r.n == 10
    assert r.block("identity").kind == OCCLUSION
    assert np.array_equal(r.atoms[:, 4:], np.eye(6))
