"""Occlusion-robust classification over a compound dictionary.

Builds a small benchmark: a 20-class gallery, an occlusion dictionary
learned from scarf-occluded images, and a compound dictionary [faces,
occlusion]. Test images with 60% scarf occlusion are classified in
structured, plain-l1, and identity-baseline modes; structured coding
holds up best, and the residual distribution index flags an unrelated
input for rejection.
"""

import numpy as np

from occlucode import (
    ClassifierConfig,
    ImageVector,
    KsvdConfig,
    MaskEstimatorConfig,
    OcclusionShape,
    SolverConfig,
    SynthSpec,
    apply_occlusion,
    build_compound,
    build_sample_set,
    classify,
    classify_src_baseline,
    collect_soc,
    downsample_dictionary,
    downsample_vector,
    generate_gallery,
    ksvd_train,
    normalize_vector,
)
from occlucode.synth import _class_bases, _faces_for_class

spec = SynthSpec(
    classes=20,
    samples_per_class=4,
    height=30,
    width=24,
    subspace_dim=3,
    occlusion_shapes=(OcclusionShape("scarf", "lower-band", 0.6),),
    noise_sigma=0.01,
    seed=11,
)
train, test = generate_gallery(spec)

# learn the occlusion dictionary from 10 subjects
mask_cfg = MaskEstimatorConfig(h=20, beta=1.5)
bases = _class_bases(spec, spec.classes)
patterns = []
for ci in range(10):
    label = spec.class_label(ci)
    for grid in _faces_for_class(spec, bases[ci], ci, "collect-scarf", 6):
        occluded, _ = apply_occlusion(grid, "scarf", spec)
        patterns.append(
            collect_soc(normalize_vector(occluded), train, label, mask_cfg)
        )
occ_dict = ksvd_train(
    build_sample_set(patterns, "scarf", "soc", True),
    KsvdConfig(atom_count=30, sparsity_budget=4, iterations=20, seed=0),
)

# classify at 12x10 feature resolution
th, tw = 12, 10
faces = downsample_dictionary(train, (30, 24), th, tw)
occ = downsample_dictionary(occ_dict, (30, 24), th, tw)
compound = build_compound([faces], [occ])
solver = SolverConfig(epsilon=0.05, tol=3e-5, max_iters=400)


def features(v):
    return normalize_vector(downsample_vector(v, th, tw))


batch = []
for v, label in test[:40]:
    occluded, _ = apply_occlusion(v, "scarf", spec)
    batch.append((features(occluded), label))

for mode in ("structured", "l1", "src"):
    correct = 0
    for u, label in batch:
        if mode == "src":
            cfg = ClassifierConfig(
                sparsity_mode="l1", solver=solver, baseline_identity_occlusion=True
            )
            out = classify_src_baseline(u, faces, cfg)
        else:
            cfg = ClassifierConfig(sparsity_mode=mode, solver=solver)
            out = classify(u, compound, cfg)
        correct += out.face_label == label
    print(f"{mode:>10}: {correct}/{len(batch)} correct at 60% occlusion")

# rejection: an unrelated texture matches no class
rng = np.random.default_rng(5)
junk = normalize_vector(ImageVector(rng.uniform(size=th * tw), (th, tw)))
cfg = ClassifierConfig(sparsity_mode="structured", solver=solver, theta_face=0.5)
out = classify(junk, compound, cfg)
print(f"\nunrelated input: rdi_face = {out.rdi_face:.3f} -> {out.face_label}")
