"""Occlusion-mask estimation on a synthetic occluded face.

A test face is overwritten with a 25% rectangle of foreign texture. The
estimator alternates l1 error fitting with graph-cut support updates and
recovers the occluded region; per-iteration error/support images land in
./mask_debug/ as PGM files.
"""

import numpy as np

from occlucode import (
    MaskEstimatorConfig,
    OcclusionShape,
    SynthSpec,
    apply_occlusion,
    estimate_mask,
    extract_pattern,
    generate_gallery,
    normalize_vector,
)

spec = SynthSpec(
    classes=8,
    samples_per_class=5,
    height=30,
    width=24,
    subspace_dim=3,
    occlusion_shapes=(OcclusionShape("patch", "rectangle", 0.25),),
    noise_sigma=0.01,
    seed=4,
)
train, test = generate_gallery(spec)
clean, label = test[0]
occluded, truth = apply_occlusion(clean, "patch", spec)
u = normalize_vector(occluded)

cfg = MaskEstimatorConfig(h=20, beta=1.5)
est = estimate_mask(u, train.subdict(label), cfg, debug_dir="mask_debug")

est_occ = np.asarray(est.mask.support) == 0
true_occ = np.asarray(truth.support) == 0
iou = (est_occ & true_occ).sum() / (est_occ | true_occ).sum()

print(f"image          : class {label}, 25% rectangle occlusion")
print(f"outer iterations: {est.iterations}")
print(f"true occluded  : {true_occ.sum()} px, estimated {est_occ.sum()} px")
print(f"mask IoU       : {iou:.3f}")

pattern = extract_pattern(est)
print(f"pattern support: {(np.abs(pattern.data) > 0).sum()} px, unit norm")
print("per-iteration dumps written to mask_debug/")
