"""Occlusion-sample collection strategies and K-SVD compression."""

import warnings

import numpy as np
import pytest

from occlucode import (
    Block,
    BlockedDictionary,
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
from occlucode.core import FACE, normalize_columns
from occlucode.dictlearn import OcclusionSampleSet, _omp_codes
from occlucode.errors import EmptySamplesError, RankDeficientWarning, ZeroPatternError

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
    with pytest.raises(ZeroPatternError, match="norm below 1e-6"):
        collect_ssrc(u, sub)


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


def test_collect_ssrc_warns_only_when_rank_deficient(rng):
    sub = random_dictionary(rng, 10, 3)
    u = ImageVector(rng.uniform(0.1, 1.0, 10), (2, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RankDeficientWarning)
        collect_ssrc(u, sub)
    atoms = np.column_stack([sub.atoms, sub.atoms[:, 0]])  # atom 0 repeated
    repeated = BlockedDictionary(atoms, (Block("all", FACE, 0, 4),))
    with pytest.warns(RankDeficientWarning):
        collect_ssrc(u, repeated)


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


def test_collect_esrc_at_a_unit_norm_centroid_raises(rng):
    sub = random_dictionary(rng, 8, 1)  # a unit-norm centroid
    u = ImageVector(sub.atoms[:, 0], (2, 4))
    with pytest.raises(ZeroPatternError, match="norm below 1e-6"):
        collect_esrc(u, sub)


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


def omp_oracle(D, s, budget, prev_code):
    """Orthogonal matching pursuit of one sample, with a least-squares refit
    on the support after every pick and the coder's floor stop, re-pick mask
    and monotonicity guard."""
    code = np.zeros(D.shape[1])
    support = []
    r = s
    floor = 1e-10 * np.linalg.norm(s)
    for _ in range(min(budget, D.shape[1])):
        corr = np.abs(D.T @ r)
        corr[support] = 0.0
        j = int(np.argmax(corr))
        if corr[j] <= floor:
            break
        support.append(j)
        sol, *_ = np.linalg.lstsq(D[:, support], s, rcond=None)
        code[support] = sol
        r = s - D[:, support] @ sol
    if np.linalg.norm(r) <= np.linalg.norm(s - D @ prev_code):
        return code
    return prev_code


def _omp_code(D, s, budget, prev_code):
    """The batched coder on one sample."""
    return _omp_codes(D, s[:, None], budget, prev_code[:, None])[:, 0]


@pytest.mark.parametrize("budget", [1, 2, 4])
def test_omp_orthonormal_keeps_largest_correlations(rng, budget):
    D, _ = np.linalg.qr(rng.standard_normal((12, 6)))
    s = rng.standard_normal(12)
    code = _omp_code(D, s, budget, np.zeros(6))
    Dts = D.T @ s
    keep = np.argsort(-np.abs(Dts))[:budget]
    expect = np.zeros(6)
    expect[keep] = Dts[keep]
    assert np.allclose(code, expect, atol=1e-12)
    assert np.count_nonzero(code) == budget


@pytest.mark.parametrize("budget", [5, 7])
def test_omp_full_budget_is_least_squares(rng, budget):
    D = normalize_columns(rng.standard_normal((10, 5)))
    s = rng.standard_normal(10)
    code = _omp_code(D, s, budget, np.zeros(5))
    expect, *_ = np.linalg.lstsq(D, s, rcond=None)
    assert np.allclose(code, expect, atol=1e-10)


def test_omp_stops_at_a_residual_of_rounding_noise(rng):
    # s is an exact mix of two atoms: after two picks its residual is
    # rounding noise, which must not buy a third atom a rounding-level entry
    D = normalize_columns(rng.standard_normal((30, 6)))
    s = D[:, [1, 4]] @ rng.uniform(0.5, 1.0, 2)
    code = _omp_code(D, s / np.linalg.norm(s), 4, np.zeros(6))
    assert np.flatnonzero(code).tolist() == [1, 4]


def test_omp_guard_keeps_exact_previous_code():
    # s = a1 + a2, but a3 correlates with s more than a1 or a2 do: greedy
    # OMP picks a3 first and cannot represent s with two atoms
    D = np.array([[1.0, 0.0, 1.0 / 1.5],
                  [0.0, 1.0, 1.0 / 1.5],
                  [0.0, 0.0, 0.5 / 1.5],
                  [0.0, 0.0, 0.0]])
    s = D[:, 0] + D[:, 1]
    greedy = _omp_code(D, s, 2, np.zeros(3))
    assert greedy[2] != 0.0
    assert np.linalg.norm(s - D @ greedy) > 0.1
    prev = np.array([1.0, 1.0, 0.0])
    assert np.array_equal(_omp_code(D, s, 2, prev), prev)


def test_omp_never_picks_an_atom_twice(rng):
    # atoms 0 and 1 are 3e-7 apart on rows 0-5, atoms 2 and 3 random on rows
    # 6-11. Refitting a0 - a1 on both leaves their correlations with the
    # residual at rounding noise above the floor, while atoms 2 and 3
    # correlate exactly 0: only the re-pick mask stops a third pick, of an
    # atom already in the support
    angle = 3e-7
    a, b = np.linalg.qr(rng.standard_normal((6, 2)))[0].T
    D = np.zeros((12, 4))
    D[:6, 0], D[:6, 1] = a, np.cos(angle) * a + np.sin(angle) * b
    D[6:, 2:] = normalize_columns(rng.standard_normal((6, 2)))
    S = normalize_columns(np.column_stack((D[:, 0] - D[:, 1], D[:, 2] + D[:, 3],
                                           D[:, 1] - D[:, 0])))
    codes = _omp_codes(D, S, 3, np.zeros((4, 3)))
    assert np.all(np.isfinite(codes))
    assert [np.flatnonzero(code).tolist() for code in codes.T] == [[0, 1], [2, 3], [0, 1]]


def test_batched_omp_matches_per_sample_oracle(rng):
    # atoms 0-2 are test_omp_guard_keeps_exact_previous_code's on rows 0-2,
    # atoms 3-5 random unit atoms on rows 4-9
    D = np.zeros((10, 6))
    D[:3, :3] = [[1.0, 0.0, 1.0 / 1.5], [0.0, 1.0, 1.0 / 1.5], [0.0, 0.0, 0.5 / 1.5]]
    D[4:, 3:] = normalize_columns(rng.standard_normal((6, 3)))
    full = rng.standard_normal((10, 3))
    floor = D[:, 4], -0.5 * D[:, 3]  # one atom each: the residual is rounding
    guard = D[:, 0] + D[:, 1]  # greedy picks atom 2 first and stays worse
    S = np.column_stack((full[:, 0], floor[0], guard, full[:, 1], full[:, 2], floor[1]))
    prev = np.zeros((6, S.shape[1]))
    prev[:2, 2] = 1.0
    prev[:, 3] = 0.1  # worse than OMP's code
    budget = 2
    codes = _omp_codes(D, S, budget, prev)
    kinds = []
    for j in range(S.shape[1]):
        expect = omp_oracle(D, S[:, j], budget, prev[:, j])
        assert np.array_equal(np.flatnonzero(codes[:, j]), np.flatnonzero(expect))
        assert np.allclose(codes[:, j], expect, rtol=0.0, atol=1e-12)
        kinds.append("guard" if np.array_equal(expect, prev[:, j])
                     else np.count_nonzero(expect))
    assert kinds == [2, 1, "guard", 2, 2, 1]


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
