"""Occlusion-sample collection strategies and K-SVD compression."""

import numpy as np
import pytest

from occlucode import (
    ImageVector,
    KsvdConfig,
    MaskEstimatorConfig,
    OcclusionShape,
    SynthSpec,
    apply_occlusion,
    build_sample_set,
    collect_esrc,
    collect_soc,
    collect_ssrc,
    generate_gallery,
    ksvd_train,
    ksvd_train_with_trace,
    normalize_vector,
    spectrum,
)
from occlucode.core import normalize_columns
from occlucode.dictlearn import OcclusionSampleSet
from occlucode.errors import EmptySamplesError, ZeroPatternError

from conftest import random_dictionary


def _scene(seed=4, fraction=0.25):
    spec = SynthSpec(
        classes=6,
        samples_per_class=5,
        height=20,
        width=16,
        subspace_dim=3,
        occlusion_shapes=(OcclusionShape("occ", "rectangle", fraction),),
        noise_sigma=0.005,
        seed=seed,
    )
    train, test = generate_gallery(spec)
    return spec, train, test


# ---------------------------------------------------------------------------
# collection


def test_collect_soc_clean_image_rejected():
    spec, train, test = _scene()
    v, label = test[0]
    cfg = MaskEstimatorConfig(beta=1.5)
    with pytest.raises(ZeroPatternError):
        collect_soc(normalize_vector(v), train, label, cfg)


def test_collect_soc_labeled_correlates_with_truth():
    spec, train, test = _scene(seed=6)
    v, label = test[0]
    occ, truth = apply_occlusion(v, "occ", spec)
    u = normalize_vector(occ)
    nrm = np.linalg.norm(occ.data)
    v_occ = u.data - v.data / nrm  # additive occlusion component in u's scale
    cfg = MaskEstimatorConfig(beta=1.5)
    pattern = collect_soc(u, train, label, cfg)
    corr = abs(pattern.data @ v_occ) / np.linalg.norm(v_occ)
    assert corr >= 0.8


def test_collect_soc_unlabeled_close_to_labeled():
    spec, train, test = _scene(seed=6)
    v, label = test[0]
    occ, _ = apply_occlusion(v, "occ", spec)
    u = normalize_vector(occ)
    nrm = np.linalg.norm(occ.data)
    v_occ = u.data - v.data / nrm
    cfg = MaskEstimatorConfig(h=10, beta=1.5)
    p_lab = collect_soc(u, train, label, cfg)
    p_lcd = collect_soc(u, train, None, cfg)
    c_lab = abs(p_lab.data @ v_occ) / np.linalg.norm(v_occ)
    c_lcd = abs(p_lcd.data @ v_occ) / np.linalg.norm(v_occ)
    assert abs(c_lab - c_lcd) < 0.1


def test_collect_ssrc_in_span_is_zero(rng):
    sub = random_dictionary(rng, 10, 3)
    u = ImageVector(sub.atoms @ np.array([0.5, 0.3, 0.2]), (2, 5))
    out = collect_ssrc(u, sub)
    assert np.max(np.abs(out.data)) < 1e-8  # zero sample, caller drops it


def test_collect_ssrc_orthogonal_passthrough():
    sub = random_dictionary(np.random.default_rng(1), 6, 2)
    # build a vector orthogonal to span(sub)
    q, _ = np.linalg.qr(sub.atoms)
    u_data = np.eye(6)[5] - q @ (q.T @ np.eye(6)[5])
    u = ImageVector(u_data, (2, 3))
    out = collect_ssrc(u, sub)
    expect = u_data / np.linalg.norm(u_data)
    assert np.allclose(out.data, expect, atol=1e-8)


def test_collect_ssrc_matches_normal_equations(rng):
    sub = random_dictionary(rng, 10, 3)
    u = normalize_vector(ImageVector(rng.uniform(0.1, 1.0, 10), (2, 5)))
    out = collect_ssrc(u, sub)
    D = sub.atoms
    proj = D @ np.linalg.solve(D.T @ D, D.T @ u.data)
    expect = u.data - proj
    assert np.allclose(out.data * np.linalg.norm(expect), expect, atol=1e-10)
    # orthogonality of the raw residual
    assert np.max(np.abs(D.T @ expect)) < 1e-8


def test_collect_esrc_centroid_is_zero(rng):
    sub = random_dictionary(rng, 8, 4)
    centroid = sub.atoms.mean(axis=1)
    u = ImageVector(centroid, (2, 4))
    out = collect_esrc(u, sub)
    # u is normalized internally; the difference from the centroid is small
    # but not exactly zero unless the centroid already has unit norm
    scaled = centroid / np.linalg.norm(centroid)
    direct = scaled - centroid
    assert np.allclose(
        out.data * max(np.linalg.norm(direct), 1e-12), direct, atol=1e-9
    )


def test_collect_esrc_single_column(rng):
    sub = random_dictionary(rng, 8, 1)
    u = normalize_vector(ImageVector(rng.uniform(0.1, 1.0, 8), (2, 4)))
    out = collect_esrc(u, sub)
    expect = u.data - sub.atoms[:, 0]
    expect /= np.linalg.norm(expect)
    assert np.allclose(out.data, expect, atol=1e-12)


def test_build_sample_set_drops_zero_with_warning(rng):
    good = ImageVector(rng.standard_normal(8), (2, 4))
    zero = ImageVector(np.zeros(8), (2, 4))
    with pytest.warns(UserWarning, match="near-zero"):
        s = build_sample_set([good, zero, good], "c", "soc", True)
    assert s.p == 2


def test_build_sample_set_all_zero_raises():
    zero = ImageVector(np.zeros(8), (2, 4))
    with pytest.warns(UserWarning):
        with pytest.raises(EmptySamplesError):
            build_sample_set([zero], "c", "soc", True)


def test_sample_set_rejects_non_finite():
    samples = np.eye(3)
    samples[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        OcclusionSampleSet(samples, "c", "soc", True)


# ---------------------------------------------------------------------------
# K-SVD


def test_ksvd_rank1_recovery(rng):
    v = rng.standard_normal(12)
    v /= np.linalg.norm(v)
    S = np.tile(v[:, None], (1, 30))
    sset = OcclusionSampleSet(S, "c", "soc", True)
    d = ksvd_train(sset, KsvdConfig(atom_count=1, sparsity_budget=1, iterations=3))
    assert min(
        np.linalg.norm(d.atoms[:, 0] - v), np.linalg.norm(d.atoms[:, 0] + v)
    ) < 1e-10


def test_ksvd_two_orthogonal_directions(rng):
    e1, e2 = np.eye(10)[0], np.eye(10)[1]
    cols = [e1 if i % 2 == 0 else e2 for i in range(20)]
    sset = OcclusionSampleSet(np.stack(cols, axis=1), "c", "soc", True)
    d, trace = ksvd_train_with_trace(
        sset, KsvdConfig(atom_count=2, sparsity_budget=1, iterations=5, seed=1)
    )
    # atoms span the same 2-d subspace; samples reconstruct exactly
    proj = d.atoms @ np.linalg.lstsq(d.atoms, sset.samples, rcond=None)[0]
    assert np.linalg.norm(sset.samples - proj) < 1e-8
    assert trace[-1] < 1e-8


def test_ksvd_60_samples_to_30_atoms(rng):
    S = normalize_columns(
        rng.standard_normal((40, 8)) @ rng.standard_normal((8, 60))
        + 0.01 * rng.standard_normal((40, 60))
    )
    sset = OcclusionSampleSet(S, "c", "soc", True)
    d = ksvd_train(sset, KsvdConfig(atom_count=30, sparsity_budget=4, iterations=5))
    assert d.n == 30
    assert np.allclose(np.linalg.norm(d.atoms, axis=0), 1.0, atol=1e-9)
    assert d.blocks[0].kind == "occlusion"


def test_ksvd_trace_nonincreasing(rng):
    for seed in range(3):
        r = np.random.default_rng(seed)
        S = normalize_columns(r.standard_normal((25, 40)))
        sset = OcclusionSampleSet(S, "c", "soc", True)
        _, trace = ksvd_train_with_trace(
            sset, KsvdConfig(atom_count=10, sparsity_budget=3, iterations=10, seed=seed)
        )
        assert np.all(np.diff(trace) <= 1e-10)


def test_ksvd_bit_reproducible(rng):
    S = normalize_columns(rng.standard_normal((20, 30)))
    sset = OcclusionSampleSet(S, "c", "soc", True)
    cfg = KsvdConfig(atom_count=8, sparsity_budget=3, iterations=6, seed=42)
    d1 = ksvd_train(sset, cfg)
    d2 = ksvd_train(sset, cfg)
    assert np.array_equal(d1.atoms, d2.atoms)


def test_ksvd_too_many_atoms(rng):
    S = normalize_columns(rng.standard_normal((10, 5)))
    sset = OcclusionSampleSet(S, "c", "soc", True)
    with pytest.raises(EmptySamplesError):
        ksvd_train(sset, KsvdConfig(atom_count=6))


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_rank1(rng):
    v = rng.standard_normal(10)
    v /= np.linalg.norm(v)
    S = np.tile(v[:, None], (1, 5))
    vals = spectrum(OcclusionSampleSet(S, "c", "soc", True))
    assert vals[0] == pytest.approx(5.0)
    assert np.max(np.abs(vals[1:])) < 1e-10


def test_spectrum_orthonormal_flat():
    S = np.eye(6)[:, :4]
    vals = spectrum(OcclusionSampleSet(S, "c", "soc", True))
    assert np.allclose(vals, 1.0)


def test_spectrum_matches_eigensolver(rng):
    S = normalize_columns(
        rng.standard_normal((15, 4)) @ rng.standard_normal((4, 10))
        + 0.05 * rng.standard_normal((15, 10))
    )
    sset = OcclusionSampleSet(S, "c", "soc", True)
    vals = spectrum(sset)
    ref = np.sort(np.linalg.eigvals(S.T @ S).real)[::-1]
    assert np.allclose(vals, np.maximum(ref, 0.0), atol=1e-8)
    assert np.all(np.diff(vals) <= 1e-12)
