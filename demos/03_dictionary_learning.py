"""Occlusion-sample collection and K-SVD compression.

Sixty occluded gallery images from ten subjects yield sixty occlusion
patterns via mask-based extraction; their eigenvalue spectrum shows the
set is highly redundant, and K-SVD compresses it to a compact occlusion
dictionary with little extra representation error.
"""

import numpy as np

from occlucode import (
    KsvdConfig,
    MaskEstimatorConfig,
    OcclusionShape,
    SynthSpec,
    apply_occlusion,
    build_sample_set,
    collect_soc,
    generate_gallery,
    ksvd_train_with_trace,
    normalize_vector,
    spectrum,
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
train, _ = generate_gallery(spec)
mask_cfg = MaskEstimatorConfig(h=20, beta=1.5)

patterns = []
bases = _class_bases(spec, spec.classes)
for ci in range(10):
    label = spec.class_label(ci)
    for grid in _faces_for_class(spec, bases[ci], ci, "collect-scarf", 6):
        occluded, _ = apply_occlusion(grid, "scarf", spec)
        patterns.append(
            collect_soc(normalize_vector(occluded), train, label, mask_cfg)
        )
sample_set = build_sample_set(patterns, "scarf", "soc", True)
print(f"collected {sample_set.p} occlusion samples of dimension {sample_set.m}")

eigs = spectrum(sample_set)
explained = np.cumsum(eigs) / eigs.sum()
k90 = int(np.searchsorted(explained, 0.90)) + 1
print(f"eigenvalue spectrum: top-1 carries {eigs[0] / eigs.sum():.0%}, "
      f"{k90} eigenvalues explain 90% -- redundant and compressible")

dictionary, trace = ksvd_train_with_trace(
    sample_set, KsvdConfig(atom_count=30, sparsity_budget=4, iterations=20, seed=0)
)
print(f"\nK-SVD: {sample_set.p} samples -> {dictionary.n} atoms")
print(f"representation error: {trace[0]:.4f} -> {trace[-1]:.4f} "
      f"over {len(trace)} iterations (non-increasing)")
