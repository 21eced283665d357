"""Acceptance benchmarks for the whole system, one test per criterion.

Each test prints a single pass/fail line (visible in the pytest output)
and asserts the same condition. Oracles are independent of the library
code: exhaustive support enumeration, vectorized brute-force labeling
search, and re-run determinism digests.
"""

import hashlib
import itertools
import os
import time

import numpy as np
import pytest
from scipy.linalg import hadamard, qr
from scipy.optimize import minimize

import occlucode as oc
from occlucode import (
    Block,
    BlockedDictionary,
    ClassifierConfig,
    ImageVector,
    KsvdConfig,
    MaskEstimatorConfig,
    OcclusionShape,
    SolverConfig,
    SynthSpec,
    apply_occlusion,
    build_compound,
    build_lcd,
    build_sample_set,
    classify,
    classify_many,
    collect_soc,
    downsample_dictionary,
    downsample_vector,
    estimate_mask,
    generate_gallery,
    ksvd_train,
    ksvd_train_with_trace,
    normalize_vector,
    solve_group_bpdn,
    solve_l1_bpdn,
    with_identity_block,
)
from occlucode.cli import main
from occlucode.core import FACE, normalize_columns
from occlucode.graphcut import grid_edges, maximize_grid_mrf, mrf_energy
from occlucode.maskest import _data_terms
from occlucode.synth import _class_bases, _faces_for_class

FAST = SolverConfig(epsilon=0.05, tol=3e-5, max_iters=400)


def report(capsys, line, ok):
    with capsys.disabled():
        print(f"\n{line}: {'PASS' if ok else 'FAIL'}")
    assert ok


def vec(data):
    d = np.asarray(data, dtype=float)
    return ImageVector(d, (1, d.size))


def feat(v, th, tw):
    return normalize_vector(downsample_vector(v, th, tw))


def auc(valid, invalid):
    """Area under accept-rate curves over the threshold sweep; NaN means a
    zero-residual fit and always accepts."""
    thetas = np.linspace(0, 1, 101)
    v, iv = np.asarray(valid), np.asarray(invalid)
    tpr = [(np.isnan(v) | (v <= t)).mean() for t in thetas]
    fpr = [(np.isnan(iv) | (iv <= t)).mean() for t in thetas]
    return float(np.trapezoid(tpr, fpr))


# ---------------------------------------------------------------------------
# 1. l1 coding vs exhaustive small-support oracle


def support_oracle(A, u, eps, max_support=2):
    """Min l1 norm over every support of size <= max_support; each support is
    solved as an eps-constrained problem."""
    n = A.shape[1]
    best = np.inf
    supports = []
    for k in range(1, max_support + 1):
        supports += list(itertools.combinations(range(n), k))
    if np.linalg.norm(u) <= eps:
        best = 0.0
    for sup in supports:
        As = A[:, list(sup)]
        ls, *_ = np.linalg.lstsq(As, u, rcond=None)
        if np.linalg.norm(u - As @ ls) > eps + 1e-9:
            continue
        res = minimize(
            lambda c: np.abs(c).sum(),
            ls,
            constraints=[{"type": "ineq",
                          "fun": lambda c: eps - np.linalg.norm(u - As @ c)}],
            method="SLSQP",
            options={"maxiter": 300, "ftol": 1e-12},
        )
        if res.success:
            best = min(best, np.abs(res.x).sum())
    return best


def test_criterion_01_l1_solver_matches_support_oracle(capsys):
    # randomly rotated identity+Hadamard frame: mutual coherence 1/sqrt(8),
    # low enough that the 2-sparse solution is also the l1 optimum (Gaussian
    # atoms routinely pair up at coherence > 0.8, where a denser solution
    # legitimately undercuts any 2-sparse one and no small-support oracle
    # can serve as the reference)
    H = hadamard(8) / np.sqrt(8.0)
    eps, solve_time, worst = 0.02, 0.0, 0.0
    for seed in range(50):
        r = np.random.default_rng(seed)
        Q, _ = qr(r.standard_normal((8, 8)))
        atoms = Q @ np.concatenate([np.eye(8), H[:, 1:5]], axis=1)
        d = BlockedDictionary(atoms, (Block("all", FACE, 0, 12),))
        i, j = r.choice(12, size=2, replace=False)
        noise = r.standard_normal(8)
        noise *= 0.01 / np.linalg.norm(noise)
        u = 0.7 * atoms[:, i] + 0.3 * atoms[:, j] + noise
        t0 = time.time()
        rep = solve_l1_bpdn(vec(u), d, SolverConfig(epsilon=eps))
        solve_time += time.time() - t0
        assert rep.final_residual <= eps + 1e-6
        ref = support_oracle(atoms, u, eps)
        worst = max(worst, abs(rep.objective - ref) / ref)
    ok = worst <= 0.01 and solve_time < 5.0
    report(
        capsys,
        f"[criterion 01] l1 objective vs support oracle, 50 instances "
        f"(worst rel dev {worst:.4f}, solver {solve_time:.1f}s)",
        ok,
    )


# ---------------------------------------------------------------------------
# 2. group coding with single-atom blocks degenerates to l1


def test_criterion_02_group_singletons_equal_l1(capsys):
    worst = 0.0
    blocks = tuple(Block(f"b{i}", FACE, i, i + 1) for i in range(12))
    for seed in range(50):
        r = np.random.default_rng(100 + seed)
        atoms = normalize_columns(r.standard_normal((8, 12)))
        flat = BlockedDictionary(atoms, (Block("all", FACE, 0, 12),))
        split = BlockedDictionary(atoms, blocks)
        u = vec(r.standard_normal(8) / 3.0)
        cfg = SolverConfig(epsilon=0.05, lam=1.0, q_norm=2.0, tol=1e-9)
        a = solve_l1_bpdn(u, flat, cfg)
        b = solve_group_bpdn(u, split, cfg)
        worst = max(worst, abs(a.objective - b.objective))
    ok = worst <= 1e-4
    report(
        capsys,
        f"[criterion 02] group objective equals l1 on singleton blocks, "
        f"50 instances (worst gap {worst:.2e})",
        ok,
    )


# ---------------------------------------------------------------------------
# 3. graph-cut support update vs brute force


def brute_force_energy(theta0, theta1, beta, edges, m):
    bits = (np.arange(2 ** m)[:, None] >> np.arange(m)) & 1
    en = bits @ theta1 + (1 - bits) @ theta0
    if len(edges):
        en = en + beta * (bits[:, edges[:, 0]] * bits[:, edges[:, 1]]).sum(axis=1)
    return en.max()


def test_criterion_03_graphcut_exact_on_200_grids(capsys):
    t0 = time.time()
    combos = list(itertools.product((0.0, 1.0, 20.0), (0.002, 0.005)))
    agree = 0
    for k in range(200):
        r = np.random.default_rng(1000 + k)
        h, w = int(r.integers(2, 5)), int(r.integers(2, 5))
        m = h * w
        beta, tau = combos[k % len(combos)]
        e = r.uniform(-0.1, 0.1, size=m)
        theta0, theta1 = _data_terms(e, tau)
        edges = grid_edges(h, w)
        z = maximize_grid_mrf(theta0, theta1, beta, edges)
        got = mrf_energy(z, theta0, theta1, beta, edges)
        best = brute_force_energy(theta0, theta1, beta, edges, m)
        agree += abs(got - best) <= 1e-8
    elapsed = time.time() - t0
    ok = agree == 200 and elapsed < 10.0
    report(
        capsys,
        f"[criterion 03] graph cut matches brute force on {agree}/200 grids "
        f"({elapsed:.1f}s)",
        ok,
    )


# ---------------------------------------------------------------------------
# 4. mask estimation accuracy, labeled basis and LCD


def test_criterion_04_mask_iou(capsys):
    spec = SynthSpec(
        classes=20, samples_per_class=5, height=30, width=24, subspace_dim=3,
        occlusion_shapes=(OcclusionShape("patch", "rectangle", 0.25),),
        noise_sigma=0.01, seed=7, test_per_class=5,
    )
    train, test = generate_gallery(spec)
    cfg = MaskEstimatorConfig(h=20, beta=1.5)
    ious = {"labeled": [], "lcd": []}
    for v, label in test[:100]:
        occluded, truth = apply_occlusion(v, "patch", spec)
        u = normalize_vector(occluded)
        true_occ = np.asarray(truth.support) == 0
        for kind in ("labeled", "lcd"):
            basis = train.subdict(label) if kind == "labeled" \
                else build_lcd(u, train, cfg.h)
            est = estimate_mask(u, basis, cfg)
            est_occ = np.asarray(est.mask.support) == 0
            ious[kind].append(
                (est_occ & true_occ).sum() / (est_occ | true_occ).sum()
            )
    labeled = float(np.mean(ious["labeled"]))
    lcd = float(np.mean(ious["lcd"]))
    ok = labeled >= 0.85 and lcd >= 0.75
    report(
        capsys,
        f"[criterion 04] mask IoU on 100 images, 25% rectangle "
        f"(labeled {labeled:.3f} >= 0.85, lcd {lcd:.3f} >= 0.75)",
        ok,
    )


# ---------------------------------------------------------------------------
# 5. classification under heavy contiguous occlusion, three coding modes


def test_criterion_05_structured_vs_l1_vs_src(capsys):
    t0 = time.time()
    spec = SynthSpec(
        classes=50, samples_per_class=4, height=30, width=24, subspace_dim=3,
        occlusion_shapes=(OcclusionShape("scarf", "lower-band", 0.6),),
        noise_sigma=0.01, seed=11,
    )
    train, test = generate_gallery(spec)
    mask_cfg = MaskEstimatorConfig(h=20, beta=1.5)
    bases = _class_bases(spec, spec.classes)
    patterns = []
    for ci in range(10):
        label = spec.class_label(ci)
        for g in _faces_for_class(spec, bases[ci], ci, "collect-scarf", 6):
            occluded, _ = apply_occlusion(g, "scarf", spec)
            patterns.append(
                collect_soc(normalize_vector(occluded), train, label, mask_cfg)
            )
    sset = build_sample_set(patterns, "scarf", "soc", True)
    B = ksvd_train(sset, KsvdConfig(atom_count=30, sparsity_budget=4,
                                    iterations=20, seed=0))
    th, tw = 12, 10
    Dd = downsample_dictionary(train, (30, 24), th, tw)
    Bd = downsample_dictionary(B, (30, 24), th, tw)
    R = build_compound([Dd], [Bd])
    batch = []
    for v, label in test[:200]:
        occluded, _ = apply_occlusion(v, "scarf", spec)
        batch.append((feat(occluded, th, tw), label))
    us = [u for u, _ in batch]
    acc = {}
    for mode in ("structured", "l1", "src"):
        if mode == "src":
            cfg = ClassifierConfig(sparsity_mode="l1", solver=FAST,
                                   baseline_identity_occlusion=True)
            outs = classify_many(us, with_identity_block(Dd), cfg)
        else:
            cfg = ClassifierConfig(sparsity_mode=mode, solver=FAST)
            outs = classify_many(us, R, cfg)
        correct = sum(out.face_label == label for out, (_, label) in zip(outs, batch))
        acc[mode] = correct / len(batch)
    elapsed = time.time() - t0
    ok = (
        acc["structured"] >= acc["l1"] >= acc["src"]
        and acc["structured"] >= 0.90
        and acc["src"] <= acc["structured"] - 0.10
        and elapsed < 600.0
    )
    report(
        capsys,
        f"[criterion 05] 60% scarf, 50 classes, 200 images: structured "
        f"{acc['structured']:.2f} >= l1 {acc['l1']:.2f} >= src {acc['src']:.2f} "
        f"({elapsed:.0f}s)",
        ok,
    )


# ---------------------------------------------------------------------------
# 6+7 share one gallery recipe


def _train_occ_dicts(spec, train, bases, categories, mask_cfg):
    dicts = []
    for cat in categories:
        patterns = []
        for ci in range(8):
            label = spec.class_label(ci)
            for g in _faces_for_class(spec, bases[ci], ci, f"collect-{cat}", 4):
                occluded, _ = apply_occlusion(g, cat, spec)
                patterns.append(
                    collect_soc(normalize_vector(occluded), train, label,
                                mask_cfg)
                )
        sset = build_sample_set(patterns, cat, "soc", True)
        dicts.append(ksvd_train(sset, KsvdConfig(atom_count=16,
                                                 sparsity_budget=4,
                                                 iterations=20, seed=0)))
    return dicts


def test_criterion_06_occlusion_category_identification(capsys):
    spec = SynthSpec(
        classes=20, samples_per_class=4, height=30, width=24, subspace_dim=3,
        occlusion_shapes=(OcclusionShape("sunglasses", "upper-band", 0.2),
                          OcclusionShape("scarf", "lower-band", 0.4)),
        noise_sigma=0.01, seed=31, test_per_class=6,
    )
    train, test = generate_gallery(spec)
    mask_cfg = MaskEstimatorConfig(h=20, beta=1.5)
    bases = _class_bases(spec, spec.classes)
    dicts = _train_occ_dicts(spec, train, bases, ("sunglasses", "scarf"),
                             mask_cfg)
    th, tw = 12, 10
    Dd = downsample_dictionary(train, (30, 24), th, tw)
    R = build_compound(
        [Dd], [downsample_dictionary(B, (30, 24), th, tw) for B in dicts]
    )
    cfg = ClassifierConfig(sparsity_mode="structured", solver=FAST,
                           theta_face=1.0, theta_occlusion=1.0)
    ok_count = 0
    for i, (v, label) in enumerate(test[:100]):
        cat = ("sunglasses", "scarf")[i % 2]
        occluded, _ = apply_occlusion(v, cat, spec)
        out = classify(feat(occluded, th, tw), R, cfg)
        ok_count += out.occlusion_label == cat
    ok = ok_count == 100
    report(
        capsys,
        f"[criterion 06] occlusion-category label accuracy {ok_count}/100",
        ok,
    )


def test_criterion_07_rejection_roc(capsys):
    # categories distinct in region and size (10%-50%); the occlusion
    # dictionaries cover exactly the occlusions valid inputs wear
    spec = SynthSpec(
        classes=20, samples_per_class=4, height=30, width=24, subspace_dim=3,
        occlusion_shapes=(OcclusionShape("up10", "upper-band", 0.10),
                          OcclusionShape("mid30", "rectangle", 0.30),
                          OcclusionShape("low50", "lower-band", 0.50),
                          OcclusionShape("odd", "rectangle", 0.35)),
        noise_sigma=0.01, seed=31, test_per_class=6,
    )
    train, test = generate_gallery(spec)
    mask_cfg = MaskEstimatorConfig(h=20, beta=1.5)
    bases = _class_bases(spec, spec.classes + 10)
    trained = ("up10", "mid30", "low50")
    dicts = _train_occ_dicts(spec, train, bases, trained, mask_cfg)
    th, tw = 12, 10
    Dd = downsample_dictionary(train, (30, 24), th, tw)
    R = build_compound(
        [Dd], [downsample_dictionary(B, (30, 24), th, tw) for B in dicts]
    )
    cfg = ClassifierConfig(sparsity_mode="l1", solver=FAST,
                           theta_face=1.0, theta_occlusion=1.0)

    rdi_v, rdi_i, occ_v, occ_i = [], [], [], []
    for i, (v, label) in enumerate(test[:60]):
        occluded, _ = apply_occlusion(v, trained[i % 3], spec)
        out = classify(feat(occluded, th, tw), R, cfg)
        rdi_v.append(out.rdi_face)
        occ_v.append(out.rdi_occlusion)
    for ci in range(spec.classes, spec.classes + 10):  # unenrolled subjects
        for g in _faces_for_class(spec, bases[ci], ci, "invalid", 6):
            occluded, _ = apply_occlusion(g, trained[ci % 3], spec)
            rdi_i.append(classify(feat(occluded, th, tw), R, cfg).rdi_face)
    for v, label in test[60:120]:  # unknown occlusion category
        occluded, _ = apply_occlusion(v, "odd", spec)
        occ_i.append(classify(feat(occluded, th, tw), R, cfg).rdi_occlusion)

    face_auc = auc(rdi_v, rdi_i)
    occ_auc = auc(occ_v, occ_i)
    ok = face_auc >= 0.9 and occ_auc >= 0.9
    report(
        capsys,
        f"[criterion 07] rejection AUC: invalid faces {face_auc:.3f} >= 0.9, "
        f"unknown occlusions {occ_auc:.3f} >= 0.9",
        ok,
    )


# ---------------------------------------------------------------------------
# 8. dictionary learning error is non-increasing


def test_criterion_08_ksvd_monotone(capsys):
    spec = SynthSpec(
        classes=8, samples_per_class=4, height=30, width=24, subspace_dim=3,
        occlusion_shapes=(OcclusionShape("scarf", "lower-band", 0.5),),
        noise_sigma=0.01, seed=5,
    )
    train, _ = generate_gallery(spec)
    mask_cfg = MaskEstimatorConfig(h=20, beta=1.5)
    bases = _class_bases(spec, spec.classes)
    patterns = []
    for ci in range(3):
        label = spec.class_label(ci)
        for g in _faces_for_class(spec, bases[ci], ci, "collect-scarf", 4):
            occluded, _ = apply_occlusion(g, "scarf", spec)
            patterns.append(
                collect_soc(normalize_vector(occluded), train, label, mask_cfg)
            )
    sset = build_sample_set(patterns, "scarf", "soc", True)
    _, trace = ksvd_train_with_trace(
        sset, KsvdConfig(atom_count=8, sparsity_budget=4, iterations=20, seed=0)
    )
    diffs = np.diff(trace)
    ok = len(trace) == 20 and bool(np.all(diffs <= 1e-12))
    report(
        capsys,
        f"[criterion 08] K-SVD error non-increasing over 20 iterations "
        f"({trace[0]:.4f} -> {trace[-1]:.4f}, max rise {diffs.max():.1e})",
        ok,
    )


# ---------------------------------------------------------------------------
# 9. occlusion-dictionary size sweep: small helps, large plateaus


def test_criterion_09_dictionary_size_sweep(capsys):
    shapes = (OcclusionShape("scarf", "lower-band", 0.6),
              OcclusionShape("hood", "upper-band", 0.5),
              OcclusionShape("patchA", "rectangle", 0.5),
              OcclusionShape("patchB", "rectangle", 0.4))
    spec = SynthSpec(
        classes=30, samples_per_class=4, height=30, width=24, subspace_dim=3,
        occlusion_shapes=shapes, noise_sigma=0.01, seed=21, test_per_class=4,
    )
    train, test = generate_gallery(spec)
    mask_cfg = MaskEstimatorConfig(h=20, beta=1.5)
    bases = _class_bases(spec, spec.classes)
    names = [s.name for s in shapes]
    patterns = []
    for cat in names:  # one pooled multi-category sample set
        for ci in range(8):
            label = spec.class_label(ci)
            for g in _faces_for_class(spec, bases[ci], ci, f"collect-{cat}", 2):
                occluded, _ = apply_occlusion(g, cat, spec)
                patterns.append(
                    collect_soc(normalize_vector(occluded), train, label,
                                mask_cfg)
                )
    sset = build_sample_set(patterns, "mixed", "soc", True)
    th, tw = 12, 10
    Dd = downsample_dictionary(train, (30, 24), th, tw)
    batch = []
    for i, (v, label) in enumerate(test[:100]):
        occluded, _ = apply_occlusion(v, names[i % 4], spec)
        batch.append((feat(occluded, th, tw), label))
    acc = {}
    for size in (2, 20, 60):
        B = ksvd_train(sset, KsvdConfig(atom_count=size,
                                        sparsity_budget=min(4, size),
                                        iterations=20, seed=0))
        R = build_compound([Dd], [downsample_dictionary(B, (30, 24), th, tw)])
        cfg = ClassifierConfig(sparsity_mode="structured", solver=FAST)
        outs = classify_many([u for u, _ in batch], R, cfg)
        acc[size] = np.mean([out.face_label == label
                             for out, (_, label) in zip(outs, batch)])
    ok = acc[60] - acc[20] < 0.05 and acc[2] < acc[20]
    report(
        capsys,
        f"[criterion 09] size sweep acc 2/20/60 = {acc[2]:.2f}/{acc[20]:.2f}/"
        f"{acc[60]:.2f}: plateau gap {acc[60] - acc[20]:+.2f} < 0.05, "
        f"acc(2) < acc(20)",
        ok,
    )


# ---------------------------------------------------------------------------
# 10. command-line pipeline is byte-deterministic


CORPUS_FLAGS = [
    "--classes", "4", "--samples-per-class", "4",
    "--height", "20", "--width", "16", "--subspace-dim", "2",
    "--noise-sigma", "0.005", "--seed", "3",
    "--shapes", "band:lower-band:0.4", "--test-shapes", "band",
    "--collect-classes", "3", "--collect-per-class", "3",
    "--invalid-classes", "1", "--invalid-per-class", "2",
]


def _tree_digest(path, suffix=""):
    h = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(path)):
        dirs.sort()
        for name in sorted(files):
            if name == "timings.txt" or not name.endswith(suffix):
                continue
            h.update(os.path.relpath(os.path.join(root, name), path).encode())
            with open(os.path.join(root, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def test_criterion_10_cli_byte_determinism(capsys, tmp_path):
    digests = []
    for run in ("a", "b"):
        base = tmp_path / run
        corpus, samples = str(base / "corpus"), str(base / "samples")
        dicts, out = str(base / "dict"), str(base / "out")
        assert main(["synth", "--out", corpus] + CORPUS_FLAGS) == 0
        assert main(["collect", "--corpus", corpus, "--out", samples,
                     "--strategy", "soc", "--beta", "1.5"]) == 0
        assert main(["train", "--samples",
                     os.path.join(samples, "samples_band"),
                     "--out", dicts, "--atoms", "4", "--iterations", "10"]) == 0
        occdict = os.path.join(dicts, "occdict_band")
        common = ["--corpus", corpus, "--occdict", occdict,
                  "--mode", "structured", "--features", "12x10",
                  "--tol", "3e-5", "--max-iters", "400"]
        assert main(["classify"] + common + ["--out", out + "/cls"]) == 0
        assert main(["roc"] + common + ["--out", out + "/roc"]) == 0
        assert main(["sweep", "--corpus", corpus, "--samples",
                     os.path.join(samples, "samples_band"),
                     "--out", out + "/sweep", "--sizes", "2,4",
                     "--mode", "structured", "--features", "12x10",
                     "--tol", "3e-5", "--max-iters", "400"]) == 0
        digests.append((
            _tree_digest(corpus), _tree_digest(samples), _tree_digest(dicts),
            _tree_digest(out, suffix=".csv"),
        ))
    ok = digests[0] == digests[1]
    report(
        capsys,
        "[criterion 10] identical config+seed reproduce byte-identical "
        "outputs across synth/collect/train/classify/roc/sweep",
        ok,
    )
