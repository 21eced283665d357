"""Mask estimation: LCD selection, the per-pixel likelihood, graph-cut
support updates, and the outer estimation loop on synthetic occlusions."""

import itertools
import math

import numpy as np
import pytest

from occlucode import (
    Block,
    BlockedDictionary,
    ImageVector,
    MaskEstimatorConfig,
    OcclusionShape,
    SynthSpec,
    apply_occlusion,
    build_lcd,
    estimate_mask,
    extract_pattern,
    generate_gallery,
    maskest,
    normalize_vector,
    update_support,
)
from occlucode.core import FACE, normalize_columns
from occlucode.errors import BadHError, DegenerateError, ZeroPatternError
from occlucode.graphcut import grid_edges, maximize_grid_mrf, mrf_energy
from occlucode.maskest import _data_terms

from conftest import random_dictionary


# ---------------------------------------------------------------------------
# LCD


def test_lcd_selects_max_inner_product():
    d = BlockedDictionary(np.eye(3), (Block("all", FACE, 0, 3),))
    u = ImageVector(np.array([0.0, 1.0, 0.0]), (1, 3), normalized=True)
    lcd = build_lcd(u, d, 1)
    assert np.array_equal(lcd.atoms[:, 0], [0, 1, 0])


def test_lcd_full_selection_descending(rng):
    d = random_dictionary(rng, 20, 10)
    u = normalize_vector(ImageVector(rng.standard_normal(20), (4, 5)))
    lcd = build_lcd(u, d, 10)
    psi = lcd.atoms.T @ u.data
    assert np.all(np.diff(psi) <= 1e-12)  # descending correlation order


def test_lcd_matches_direct_top5(rng):
    d = random_dictionary(rng, 20, 50)
    u = normalize_vector(ImageVector(rng.standard_normal(20), (4, 5)))
    lcd = build_lcd(u, d, 5)
    psi = d.atoms.T @ u.data
    expect = d.atoms[:, np.argsort(-psi, kind="stable")[:5]]
    assert np.array_equal(lcd.atoms, expect)


def test_lcd_bad_h(rng):
    d = random_dictionary(rng, 6, 4)
    u = normalize_vector(ImageVector(np.ones(6), (2, 3)))
    for h in (0, 5):
        with pytest.raises(BadHError):
            build_lcd(u, d, h)


def test_lcd_deterministic_ties():
    # identical columns: the lower index must win
    col = np.ones(4) / 2.0
    d = BlockedDictionary(
        np.stack([col, col, col], axis=1), (Block("all", FACE, 0, 3),)
    )
    u = ImageVector(col, (2, 2), normalized=True)
    lcd = build_lcd(u, d, 2)
    assert lcd.atoms.shape[1] == 2


# ---------------------------------------------------------------------------
# likelihood


def log_p(e_i, z_i, tau):
    """log p(e | z) of one pixel, read from the data terms of its error."""
    theta0, theta1 = _data_terms(np.array([e_i]), tau)
    return float((theta1 if z_i == 1 else theta0)[0])


def test_data_terms_small_error_supported():
    assert log_p(0.001, 1, 0.005) == pytest.approx(-math.log(0.005))
    assert log_p(0.001, 1, 0.005) == pytest.approx(5.298, abs=1e-3)


def test_data_terms_large_error_occluded():
    assert log_p(0.01, 0, 0.005) == 0.0


def test_data_terms_small_error_occluded():
    assert log_p(0.001, 0, 0.005) == pytest.approx(math.log(0.005))
    assert log_p(0.001, 0, 0.005) == pytest.approx(-5.298, abs=1e-3)


def test_data_terms_large_error_supported():
    assert log_p(0.01, 1, 0.005) == pytest.approx(math.log(0.005))


def test_data_terms_boundary_counts_as_small():
    assert log_p(0.005, 1, 0.005) == pytest.approx(-math.log(0.005))
    assert log_p(-0.005, 1, 0.005) == pytest.approx(-math.log(0.005))


# ---------------------------------------------------------------------------
# support update


def test_update_support_beta0_thresholds(rng):
    e_data = rng.uniform(-0.02, 0.02, size=12)
    e = ImageVector(e_data, (3, 4))
    z = update_support(e, beta=0.0, tau=0.005)
    assert np.array_equal(np.asarray(z.support), (np.abs(e_data) <= 0.005))


def test_update_support_all_small_all_ones(rng):
    e = ImageVector(rng.uniform(-0.001, 0.001, size=12), (3, 4))
    for beta in (0.0, 1.0, 20.0):
        z = update_support(e, beta=beta, tau=0.005)
        assert np.all(np.asarray(z.support) == 1)


def brute_force(theta0, theta1, beta, edges, m):
    best, best_z = -np.inf, None
    for bits in itertools.product((0, 1), repeat=m):
        z = np.array(bits)
        en = mrf_energy(z, theta0, theta1, beta, edges)
        if en > best:
            best, best_z = en, z
    return best, best_z


def test_update_support_2x2_matches_bruteforce(rng):
    edges = grid_edges(2, 2)
    for seed in range(20):
        r = np.random.default_rng(seed)
        e_data = r.uniform(-0.02, 0.02, size=4)
        e = ImageVector(e_data, (2, 2))
        z = update_support(e, beta=1.0, tau=0.005)
        theta0, theta1 = _data_terms(e_data, 0.005)
        best, _ = brute_force(theta0, theta1, 1.0, edges, 4)
        got = mrf_energy(np.asarray(z.support), theta0, theta1, 1.0, edges)
        assert got == pytest.approx(best, abs=1e-6)


def test_graphcut_exact_on_random_grids():
    # general unary terms, several grid shapes and beta values
    for seed in range(40):
        r = np.random.default_rng(seed)
        h, w = r.integers(2, 5), r.integers(2, 5)
        m = h * w
        if m > 16:
            continue
        theta0 = r.uniform(-6, 6, size=m)
        theta1 = r.uniform(-6, 6, size=m)
        beta = float(r.choice([0.0, 0.7, 5.0, 20.0]))
        edges = grid_edges(h, w)
        z = maximize_grid_mrf(theta0, theta1, beta, edges)
        best, _ = brute_force(theta0, theta1, beta, edges, m)
        got = mrf_energy(z, theta0, theta1, beta, edges)
        assert got == pytest.approx(best, abs=1e-5)


def test_grid_edges_counts():
    assert len(grid_edges(3, 4)) == 3 * 3 + 2 * 4  # horizontal + vertical
    assert len(grid_edges(3, 4, "8-connected")) == 17 + 2 * 2 * 3


# ---------------------------------------------------------------------------
# outer loop


def _occluded_scene(seed=3, fraction=0.25, region="rectangle"):
    spec = SynthSpec(
        classes=6,
        samples_per_class=5,
        height=20,
        width=16,
        subspace_dim=3,
        occlusion_shapes=(OcclusionShape("occ", region, fraction),),
        noise_sigma=0.005,
        seed=seed,
    )
    train, test = generate_gallery(spec)
    v, label = test[0]
    occ, truth = apply_occlusion(v, "occ", spec)
    u = normalize_vector(occ)
    # the additive occlusion component in u's scale: u = (clean + v_occ)/nrm
    nrm = np.linalg.norm(occ.data)
    v_occ = u.data - v.data / nrm
    return spec, train, label, u, truth, v_occ


def test_estimate_mask_clean_input_all_ones(rng):
    spec = SynthSpec(
        classes=3, samples_per_class=4, height=12, width=10, subspace_dim=2, seed=1
    )
    train, test = generate_gallery(spec)
    v, label = test[0]
    cfg = MaskEstimatorConfig(beta=1.5)
    est = estimate_mask(normalize_vector(v), train.subdict(label), cfg)
    assert np.all(np.asarray(est.mask.support) == 1)
    assert np.max(np.abs(est.pattern.data)) == 0.0


def test_estimate_mask_rectangle_iou():
    spec, train, label, u, truth, _ = _occluded_scene()
    cfg = MaskEstimatorConfig(beta=1.5)
    est = estimate_mask(u, train.subdict(label), cfg)
    est_occ = np.asarray(est.mask.support) == 0
    true_occ = np.asarray(truth.support) == 0
    iou = (est_occ & true_occ).sum() / max((est_occ | true_occ).sum(), 1)
    assert iou >= 0.7


def test_estimate_mask_ignores_the_choice_of_minimizer(monkeypatch):
    # the labeled basis has lower rank than atoms, so each LAD fit has many
    # minimizers x with the same A @ x; the mask must not depend on which
    spec, train, label, u, truth, _ = _occluded_scene()
    basis = train.subdict(label)
    cfg = MaskEstimatorConfig(beta=1.5)
    ref = estimate_mask(u, basis, cfg)
    fit = maskest.l1_regression
    shifts = []

    def shifted(A, b):
        _, s, vt = np.linalg.svd(A)
        assert s[-1] <= 1e-10 * s[0]
        shifts.append(vt[-1])
        return fit(A, b) + 2.5 * vt[-1]  # a null-space vector of A

    monkeypatch.setattr(maskest, "l1_regression", shifted)
    est = estimate_mask(u, basis, cfg)
    assert len(shifts) == est.iterations == ref.iterations
    assert np.array_equal(est.mask.support, ref.mask.support)
    assert np.max(np.abs(est.pattern.data - ref.pattern.data)) <= 1e-12


def test_estimate_mask_pattern_consistency():
    spec, train, label, u, truth, _ = _occluded_scene(seed=5)
    est = estimate_mask(u, train.subdict(label), MaskEstimatorConfig(beta=1.5))
    nz = np.abs(est.pattern.data) > 0
    assert np.all(np.asarray(est.mask.support)[nz] == 0)


def test_estimate_mask_scarf_contiguous():
    # heavy lower-band occlusion stays one connected component
    spec, train, label, u, truth, _ = _occluded_scene(
        seed=9, fraction=0.6, region="lower-band"
    )
    est = estimate_mask(u, train.subdict(label), MaskEstimatorConfig(beta=2.6))
    occ = (np.asarray(est.mask.support) == 0).reshape(u.shape)
    from scipy.ndimage import label as cc_label

    _, n_comp = cc_label(occ)
    assert n_comp == 1
    # no isolated single occluded pixels
    comp, n = cc_label(occ)
    sizes = np.bincount(comp.ravel())[1:]
    assert sizes.min() > 1


def test_estimate_mask_degenerate_raises():
    # an image the basis cannot explain at all: error everywhere
    spec, train, label, u, truth, _ = _occluded_scene(seed=2)
    rng = np.random.default_rng(0)
    junk = normalize_vector(
        ImageVector(rng.uniform(0.0, 1.0, size=u.m), u.shape)
    )
    cfg = MaskEstimatorConfig(beta=1.5, min_support_fraction=0.5)
    with pytest.raises(DegenerateError):
        estimate_mask(junk, train.subdict(label), cfg)


def test_extract_pattern_all_ones_raises():
    spec = SynthSpec(
        classes=3, samples_per_class=4, height=12, width=10, subspace_dim=2, seed=1
    )
    train, test = generate_gallery(spec)
    v, label = test[0]
    u = normalize_vector(v)
    est = estimate_mask(u, train.subdict(label), MaskEstimatorConfig(beta=1.5))
    with pytest.raises(ZeroPatternError):
        extract_pattern(est)


def test_extract_pattern_correlates_with_truth():
    spec, train, label, u, truth, v_occ = _occluded_scene(seed=7)
    basis = train.subdict(label)
    est = estimate_mask(u, basis, MaskEstimatorConfig(beta=1.5))
    pattern = extract_pattern(est)
    corr = np.abs(pattern.data @ v_occ) / max(np.linalg.norm(v_occ), 1e-12)
    assert corr >= 0.8
    assert abs(np.linalg.norm(pattern.data) - 1.0) < 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        MaskEstimatorConfig(tau_schedule=(0.002, 0.005))  # increasing
    with pytest.raises(ValueError):
        MaskEstimatorConfig(tau_schedule=())
    with pytest.raises(BadHError):
        MaskEstimatorConfig(h=0)


def test_default_tau_schedule_shape():
    cfg = MaskEstimatorConfig()
    taus = cfg.tau_schedule
    assert len(taus) == 7
    assert taus[0] == pytest.approx(0.005)
    assert taus[-1] == pytest.approx(0.002)
    assert np.allclose(np.diff(taus), -0.0005)
