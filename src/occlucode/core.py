"""Core domain types and residual primitives.

Images are grayscale in [0, 1], stored as float64. A dictionary is a
column-stacked matrix of unit-norm atoms together with a block map that
assigns contiguous column ranges to named classes; face blocks always
precede occlusion blocks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadDimsError,
    DimMismatchError,
    DuplicateLabelError,
    UnknownLabelError,
    ZeroNormError,
)

NORM_TOL = 1e-9

FACE = "face"
OCCLUSION = "occlusion"


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ImageGrid:
    """A height x width grayscale image with intensities in [0, 1]."""

    height: int
    width: int
    values: np.ndarray  # (height, width), row-major

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.height, self.width):
            raise DimMismatchError(
                f"values shape {v.shape} != ({self.height}, {self.width})"
            )
        if self.height < 1 or self.width < 1:
            raise BadDimsError("grid dimensions must be positive")
        if not np.all(np.isfinite(v)):
            raise ValueError("image values must be finite")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("image values must lie in [0, 1]")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def size(self) -> int:
        return self.height * self.width


@dataclass(frozen=True)
class ImageVector:
    """A flattened image; optionally scaled to unit l2 norm.

    The grid shape is retained so the vector can be reshaped for
    neighborhood-based operations.
    """

    data: np.ndarray  # (m,)
    shape: tuple[int, int]  # (height, width)
    normalized: bool = False

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64).ravel()
        h, w = self.shape
        if d.size != h * w:
            raise DimMismatchError(f"length {d.size} != {h}*{w}")
        if not np.all(np.isfinite(d)):
            raise ValueError("vector values must be finite")
        if self.normalized and abs(np.linalg.norm(d) - 1.0) > NORM_TOL:
            raise ZeroNormError("vector flagged normalized but ||.|| != 1")
        object.__setattr__(self, "data", _freeze(d))
        object.__setattr__(self, "shape", (int(h), int(w)))

    @property
    def m(self) -> int:
        return self.data.size

    def to_grid(self) -> ImageGrid:
        """Inverse of vectorize for unnormalized [0,1] vectors."""
        h, w = self.shape
        return ImageGrid(h, w, self.data.reshape(h, w))


@dataclass(frozen=True)
class Block:
    label: str
    kind: str  # FACE or OCCLUSION
    start: int  # inclusive column index
    stop: int  # exclusive

    def __post_init__(self):
        if self.kind not in (FACE, OCCLUSION):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if not (0 <= self.start < self.stop):
            raise ValueError("empty or negative block range")

    @property
    def size(self) -> int:
        return self.stop - self.start

    @property
    def cols(self) -> slice:
        return slice(self.start, self.stop)


@dataclass(frozen=True)
class BlockedDictionary:
    """Column-stacked unit-norm atoms plus the block map R = [D, B]."""

    atoms: np.ndarray  # (m, n)
    blocks: tuple[Block, ...]

    def __post_init__(self):
        a = np.asarray(self.atoms, dtype=np.float64)
        if a.ndim != 2:
            raise DimMismatchError("atoms must be a 2-d matrix")
        blocks = tuple(self.blocks)
        n = a.shape[1]
        pos = 0
        seen_occ = False
        labels = set()
        for b in blocks:
            if b.start != pos:
                raise ValueError("block ranges must be contiguous from column 0")
            pos = b.stop
            if b.label in labels:
                raise DuplicateLabelError(b.label)
            labels.add(b.label)
            if b.kind == OCCLUSION:
                seen_occ = True
            elif seen_occ:
                raise ValueError("face blocks must precede occlusion blocks")
        if pos != n:
            raise ValueError(f"blocks cover {pos} columns, atoms have {n}")
        if not np.all(np.isfinite(a)):
            raise ValueError("atoms must be finite")
        norms = np.linalg.norm(a, axis=0)
        if n and np.max(np.abs(norms - 1.0)) > NORM_TOL:
            raise ZeroNormError("all atoms must have unit l2 norm")
        object.__setattr__(self, "atoms", _freeze(a))
        object.__setattr__(self, "blocks", blocks)

    @property
    def m(self) -> int:
        return self.atoms.shape[0]

    @property
    def n(self) -> int:
        return self.atoms.shape[1]

    @property
    def starts(self) -> np.ndarray:
        """First column of each block, in block order: the partition that
        block-wise reductions (np.add.reduceat) run over."""
        return np.array([b.start for b in self.blocks], dtype=np.intp)

    @property
    def face_blocks(self) -> tuple[Block, ...]:
        return tuple(b for b in self.blocks if b.kind == FACE)

    @property
    def occlusion_blocks(self) -> tuple[Block, ...]:
        return tuple(b for b in self.blocks if b.kind == OCCLUSION)

    def block(self, label: str) -> Block:
        for b in self.blocks:
            if b.label == label:
                return b
        raise UnknownLabelError(label)

    def subdict(self, label: str) -> "BlockedDictionary":
        """Single-block dictionary holding one labeled block's atoms."""
        b = self.block(label)
        return BlockedDictionary(
            self.atoms[:, b.cols], (Block(b.label, b.kind, 0, b.size),)
        )

    @property
    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.atoms).tobytes())
        for b in self.blocks:
            h.update(f"{b.label}|{b.kind}|{b.start}|{b.stop};".encode())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class SparseCoefficients:
    """A coefficient vector aligned to one dictionary's columns."""

    values: np.ndarray  # (n,)
    dict_id: str = ""

    def __post_init__(self):
        object.__setattr__(
            self, "values", _freeze(np.asarray(self.values, dtype=np.float64).ravel())
        )

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class OcclusionMask:
    """Binary per-pixel support; 1 = non-occluded, 0 = occluded."""

    support: np.ndarray  # (m,) of {0, 1}
    shape: tuple[int, int]

    def __post_init__(self):
        s = np.asarray(self.support)
        if not np.all((s == 0) | (s == 1)):
            raise ValueError("mask support must be exactly 0/1")
        h, w = self.shape
        if s.size != h * w:
            raise DimMismatchError(f"mask length {s.size} != {h}*{w}")
        s = np.ascontiguousarray(s, dtype=np.int8)
        s.setflags(write=False)
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "shape", (int(h), int(w)))

    @property
    def m(self) -> int:
        return self.support.size

    @property
    def occluded_fraction(self) -> float:
        return 1.0 - float(self.support.mean())


@dataclass(frozen=True)
class ClassificationOutcome:
    """Labels, residuals and rejection indices for one test image."""

    face_label: str  # class label or REJECTED
    occlusion_label: str  # category label, NONE, or REJECTED
    face_residuals: dict = field(default_factory=dict)
    occlusion_residuals: dict = field(default_factory=dict)
    rdi_face: float = float("nan")
    rdi_occlusion: float = float("nan")
    coefficients: SparseCoefficients | None = None
    iterations: int = 0  # inner solver iterations of the coding solve
    converged: bool = True  # whether that solve reached its residual window

    REJECTED = "REJECTED"
    NONE = "NONE"


# ---------------------------------------------------------------------------
# operations


def vectorize(img: ImageGrid, normalize: bool = False) -> ImageVector:
    """Stack an image into an m-vector (row major), optionally unit-norm."""
    d = img.values.ravel()
    if normalize:
        nrm = np.linalg.norm(d)
        if nrm == 0.0:
            raise ZeroNormError("cannot normalize an all-zero image")
        d = d / nrm
    return ImageVector(d, (img.height, img.width), normalized=normalize)


def normalize_vector(v: ImageVector) -> ImageVector:
    """Rescale to unit l2 norm (no-op if already flagged normalized)."""
    if v.normalized:
        return v
    nrm = np.linalg.norm(v.data)
    if nrm == 0.0:
        raise ZeroNormError("cannot normalize an all-zero vector")
    return ImageVector(v.data / nrm, v.shape, normalized=True)


def _partition_edges(src: int, dst: int) -> np.ndarray:
    """Pixel boundaries of a uniform partition, rounded to nearest pixel."""
    edges = np.rint(np.arange(dst + 1) * (src / dst)).astype(int)
    edges[0], edges[-1] = 0, src
    return edges


def _pooling_matrix(shape: tuple[int, int], target_h: int, target_w: int) -> np.ndarray:
    """(target_h*target_w x h*w) matrix of block means over a uniform
    partition of the pixels, acting on row-major image vectors: the
    Kronecker product of the row and the column averaging matrices."""
    h, w = shape
    if not (1 <= target_h <= h and 1 <= target_w <= w):
        raise BadDimsError(f"target {target_h}x{target_w} out of range for {h}x{w}")

    def averaging(src, dst):
        counts = np.diff(_partition_edges(src, dst))
        return np.repeat(np.eye(dst) / counts[:, None], counts, axis=1)

    return np.kron(averaging(h, target_h), averaging(w, target_w))


def downsample(img: ImageGrid, target_h: int, target_w: int) -> ImageGrid:
    """Block-average downsampling over a uniform partition of pixels."""
    pool = _pooling_matrix((img.height, img.width), target_h, target_w)
    out = (pool @ img.values.ravel()).reshape(target_h, target_w)
    return ImageGrid(target_h, target_w, np.clip(out, 0.0, 1.0))


def downsample_vector(v: ImageVector, target_h: int, target_w: int) -> ImageVector:
    """Downsample a (possibly normalized) vector; output is unnormalized."""
    pool = _pooling_matrix(v.shape, target_h, target_w)
    return ImageVector(pool @ v.data, (target_h, target_w))


def downsample_dictionary(
    dictionary: BlockedDictionary,
    shape: tuple[int, int],
    target_h: int,
    target_w: int,
) -> BlockedDictionary:
    """Downsample every atom (interpreted on the given grid shape) and
    renormalize; the block map is unchanged."""
    h, w = shape
    if dictionary.m != h * w:
        raise DimMismatchError(f"atoms have m={dictionary.m}, grid is {h}*{w}")
    pool = _pooling_matrix(shape, target_h, target_w)
    return BlockedDictionary(normalize_columns(pool @ dictionary.atoms), dictionary.blocks)


def block_select(
    coef: SparseCoefficients, dictionary: BlockedDictionary, label: str
) -> SparseCoefficients:
    """Zero every coefficient outside the labeled block."""
    b = dictionary.block(label)
    if coef.n != dictionary.n:
        raise DimMismatchError(f"coefficients length {coef.n} != n {dictionary.n}")
    out = np.zeros(coef.n)
    out[b.cols] = coef.values[b.cols]
    return SparseCoefficients(out, coef.dict_id)


def residual(
    u: ImageVector,
    dictionary: BlockedDictionary,
    coef: SparseCoefficients,
    keep_labels,
) -> float:
    """||u - R . masked(coef)||_2 with all blocks outside keep_labels zeroed."""
    if u.m != dictionary.m or coef.n != dictionary.n:
        raise DimMismatchError(
            f"u has m={u.m}, dict is {dictionary.m}x{dictionary.n}, coef n={coef.n}"
        )
    keep = set(keep_labels)
    known = {b.label for b in dictionary.blocks}
    missing = keep - known
    if missing:
        raise UnknownLabelError(", ".join(sorted(missing)))
    masked = np.zeros(coef.n)
    for b in dictionary.blocks:
        if b.label in keep:
            masked[b.cols] = coef.values[b.cols]
    return float(np.linalg.norm(u.data - dictionary.atoms @ masked))


def normalize_columns(mat: np.ndarray, drop_tol: float = 0.0) -> np.ndarray:
    """Scale each column to unit norm; optionally drop near-zero columns."""
    norms = np.linalg.norm(mat, axis=0)
    if drop_tol > 0.0:
        mat = mat[:, norms > drop_tol]
        norms = norms[norms > drop_tol]
    if np.any(norms == 0.0):
        raise ZeroNormError("zero column cannot be normalized")
    return mat / norms
