"""Deterministic synthetic corpus generation.

Faces are drawn from per-class cones of smooth nonnegative images
(low-pass filtered noise bases combined with positive weights).
Occlusions overwrite a contiguous region with a category-specific
texture; the ground-truth mask is returned alongside. Everything is
keyed on the corpus seed, so regeneration is byte-identical.
"""

from __future__ import annotations

import functools
import os
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    FACE,
    BlockedDictionary,
    ImageVector,
    OcclusionMask,
    normalize_vector,
    stack_blocks,
)
from .errors import BadSpecError, UnknownShapeError
from .imageio import write_manifest, write_pgm

RECTANGLE = "rectangle"
LOWER_BAND = "lower-band"
UPPER_BAND = "upper-band"
REGION_KINDS = (RECTANGLE, LOWER_BAND, UPPER_BAND)


@dataclass(frozen=True)
class OcclusionShape:
    name: str
    region: str  # rectangle | lower-band | upper-band
    fraction: float  # occluded area fraction

    def __post_init__(self):
        if self.region not in REGION_KINDS:
            raise BadSpecError(f"unknown region kind {self.region!r}")
        if not (0 < self.fraction < 1):
            raise BadSpecError("area fraction must lie in (0, 1)")
        if not self.name:
            raise BadSpecError('shape name must not be empty ("" means clean)')


@dataclass(frozen=True)
class SynthSpec:
    classes: int = 20
    samples_per_class: int = 5
    height: int = 30
    width: int = 24
    subspace_dim: int = 3
    occlusion_shapes: tuple = ()
    noise_sigma: float = 0.0
    seed: int = 0
    test_per_class: int | None = None  # defaults to samples_per_class

    def __post_init__(self):
        if self.classes < 1 or self.samples_per_class < 1:
            raise BadSpecError("need at least one class and one sample")
        if self.height < 4 or self.width < 4:
            raise BadSpecError("grid too small")
        if not (1 <= self.subspace_dim <= self.samples_per_class):
            raise BadSpecError("subspace_dim must be in [1, samples_per_class]")
        if self.noise_sigma < 0:
            raise BadSpecError("noise_sigma must be >= 0")
        if self.test_per_class is not None and self.test_per_class < 0:
            raise BadSpecError("test_per_class must be >= 0")
        object.__setattr__(self, "occlusion_shapes", tuple(self.occlusion_shapes))
        names = [s.name for s in self.occlusion_shapes]
        for name in names:
            if names.count(name) > 1:
                raise BadSpecError(f"occlusion shape name {name!r} is used twice")

    @property
    def n_test(self) -> int:
        return self.test_per_class if self.test_per_class is not None else self.samples_per_class

    def shape_named(self, name: str) -> OcclusionShape:
        for s in self.occlusion_shapes:
            if s.name == name:
                return s
        raise UnknownShapeError(f"unknown occlusion shape {name!r}")

    def class_label(self, i: int) -> str:
        return f"class{i:03d}"


# ---------------------------------------------------------------------------
# face generation

_BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def _smooth(img: np.ndarray, passes: int = 2) -> np.ndarray:
    """Separable 5-tap binomial low-pass filtering (reflect boundary) of the
    last two axes, the taps summed in kernel order as np.convolve sums them."""
    out = img
    for _ in range(passes):
        for axis in (-2, -1):
            x = np.moveaxis(out, axis, 0)
            padded = np.pad(x, [(2, 2)] + [(0, 0)] * (x.ndim - 1), mode="reflect")
            x = sum(tap * padded[k : k + len(x)] for k, tap in enumerate(_BINOMIAL5))
            out = np.moveaxis(x, 0, axis)
    return out


def _unit_range(raw: np.ndarray) -> np.ndarray:
    """Each image of the last two axes scaled to [0, 1]; a flat one is 0.5."""
    lo = raw.min(axis=(-2, -1), keepdims=True)
    span = raw.max(axis=(-2, -1), keepdims=True) - lo
    return np.where(span > 0, (raw - lo) / np.where(span > 0, span, 1.0), 0.5)


def _rng(spec: SynthSpec, *tags) -> np.random.Generator:
    parts = [spec.seed & 0xFFFFFFFF]
    for t in tags:
        if isinstance(t, str):
            parts.append(zlib.crc32(t.encode()))
        else:
            parts.append(int(t) & 0xFFFFFFFF)
    return np.random.default_rng(parts)


def _class_bases(spec: SynthSpec, count: int) -> np.ndarray:
    """(count, dim, h, w): each class's stack of smooth nonnegative basis
    images, its own seeded draw, all smoothed in one pass."""
    shape = (spec.subspace_dim, spec.height, spec.width)
    raw = np.stack([_rng(spec, "basis", i).standard_normal(shape) for i in range(count)])
    return _unit_range(_smooth(raw))


def _draw_face(rng, basis: np.ndarray) -> np.ndarray:
    weights = rng.uniform(0.2, 1.0, size=basis.shape[0])
    img = np.tensordot(weights, basis, axes=1)
    top = img.max()
    return img / top if top > 0 else img


def _faces_for_class(spec, basis, class_idx, purpose, count) -> list[ImageVector]:
    rng = _rng(spec, purpose, class_idx)
    shape = (spec.height, spec.width)
    return [ImageVector(_draw_face(rng, basis), shape) for _ in range(count)]


def generate_gallery(
    spec: SynthSpec,
) -> tuple[BlockedDictionary, list[tuple[ImageVector, str]]]:
    """Training dictionary plus a disjoint labeled test set."""
    groups, test = [], []
    for i, basis in enumerate(_class_bases(spec, spec.classes)):
        label = spec.class_label(i)
        faces = _faces_for_class(spec, basis, i, "train", spec.samples_per_class)
        groups.append((label, FACE, np.stack([normalize_vector(g).data for g in faces], axis=1)))
        test += [(g, label) for g in _faces_for_class(spec, basis, i, "test", spec.n_test)]
    return stack_blocks(groups), test


# ---------------------------------------------------------------------------
# occlusion


def _region_pixels(shape: OcclusionShape, h: int, w: int, rng) -> np.ndarray:
    """Row-major indices of a 4-connected region of exactly floor(f*h*w)
    pixels."""
    m = h * w
    target = int(shape.fraction * m)
    if target == 0:
        return np.empty(0, dtype=int)
    idx = np.arange(m).reshape(h, w)
    if shape.region == LOWER_BAND:
        flat = idx[::-1].ravel()[:target]  # fill bottom rows first
    elif shape.region == UPPER_BAND:
        flat = idx.ravel()[:target]
    else:  # rectangle window placed at a seeded random offset
        wr = min(w, max(int(np.ceil(np.sqrt(target))), int(np.ceil(target / h))))
        hr = int(np.ceil(target / wr))
        r0 = int(rng.integers(0, h - hr + 1))
        c0 = int(rng.integers(0, w - wr + 1))
        window = idx[r0 : r0 + hr, c0 : c0 + wr]
        flat = window.ravel()[:target]
    return flat


@functools.lru_cache(maxsize=16)
def _texture(spec: SynthSpec, shape: OcclusionShape) -> np.ndarray:
    """The category texture, drawn once per (spec, shape) and read-only."""
    rng = _rng(spec, "texture", shape.name)
    raw = _smooth(rng.standard_normal((spec.height, spec.width)), passes=1)
    tex = 0.1 + 0.85 * _unit_range(raw)
    tex.setflags(write=False)
    return tex


def apply_occlusion(
    img: ImageVector, shape_name: str, spec: SynthSpec
) -> tuple[ImageVector, OcclusionMask]:
    """Overwrite a contiguous region with the category texture; returns the
    occluded image and its ground-truth mask. Deterministic per image."""
    shape = spec.shape_named(shape_name)
    h, w = img.shape
    rng = _rng(spec, "occlude", shape.name, zlib.crc32(img.data.tobytes()))
    region = _region_pixels(shape, h, w, rng)
    out = img.data.copy()
    out[region] = _texture(spec, shape).ravel()[region]
    if spec.noise_sigma > 0:
        out = np.clip(out + rng.normal(0.0, spec.noise_sigma, size=out.size), 0, 1)
    support = np.ones(h * w, dtype=np.int8)
    support[region] = 0
    return ImageVector(out, img.shape), OcclusionMask(support, img.shape)


# ---------------------------------------------------------------------------
# on-disk corpus


@dataclass
class CorpusPlan:
    """What to materialize beyond the clean gallery/test split."""

    collect_classes: int = 0  # classes contributing occluded collection images
    collect_per_class: int = 3  # occluded images per class and shape
    test_shapes: tuple = ()  # shapes applied to test faces ("" = clean)
    invalid_classes: int = 0  # extra classes kept out of the gallery
    invalid_per_class: int = 2
    unknown_shapes: tuple = ()  # shapes absent from training, for rejection runs

    def __post_init__(self):
        if min(self.collect_classes, self.collect_per_class, self.invalid_classes,
               self.invalid_per_class) < 0:
            raise BadSpecError("corpus plan counts must be >= 0")


def generate_corpus(spec: SynthSpec, plan: CorpusPlan, out_dir: str) -> str:
    """Write PGM images, ground-truth masks and the manifest; returns the
    manifest path. Every shape name is resolved before the first write."""
    # the spec that knows the unknown shapes too, for apply_occlusion; its
    # __post_init__ rejects an unknown shape that reuses a training name
    aug = replace(spec, occlusion_shapes=spec.occlusion_shapes + tuple(plan.unknown_shapes))
    test_names = plan.test_shapes or ("",)
    for name in test_names:
        if name:
            aug.shape_named(name)
    os.makedirs(out_dir, exist_ok=True)
    bases = _class_bases(spec, spec.classes + plan.invalid_classes)
    rows = []

    def emit(role, prefix, i, label, purpose, count, shape_names):
        """Write class i's faces, face j occluded by shape_names[j % len]
        ("" = clean), each with its mask and manifest row."""
        for j, g in enumerate(_faces_for_class(spec, bases[i], i, purpose, count)):
            name = f"{prefix}_{label}_{j:02d}"
            shape_name = shape_names[j % len(shape_names)]
            mask_path = "-"
            if shape_name:
                g, mask = apply_occlusion(g, shape_name, aug)
                mask_path = name + "_mask.pgm"
                write_pgm(os.path.join(out_dir, mask_path),
                          ImageVector(mask.support.astype(float), mask.shape))
            write_pgm(os.path.join(out_dir, name + ".pgm"), g)
            rows.append(
                {
                    "path": name + ".pgm",
                    "face_label": label,
                    "occlusion_label": shape_name or "-",
                    "mask_path": mask_path,
                    "role": role,
                }
            )

    for i in range(spec.classes):
        label = spec.class_label(i)
        emit("gallery", "gallery", i, label, "train", spec.samples_per_class, ("",))
        emit("test", "test", i, label, "test", spec.n_test, test_names)
    for i in range(min(plan.collect_classes, spec.classes)):
        for shape in spec.occlusion_shapes:
            emit("collect", f"collect_{shape.name}", i, spec.class_label(i),
                 f"collect-{shape.name}", plan.collect_per_class, (shape.name,))
    for i in range(spec.classes, len(bases)):
        emit("invalid", "invalid", i, f"invalid{i - spec.classes:03d}", "invalid",
             plan.invalid_per_class, test_names)
    return write_manifest(out_dir, rows)
