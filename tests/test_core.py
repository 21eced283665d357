"""Domain types, vectorization, downsampling, block bookkeeping, residuals,
and the package's runtime dependencies."""

import ast
import pathlib
import sys

import numpy as np
import pytest

import occlucode
from occlucode import (
    Block,
    BlockedDictionary,
    ImageVector,
    SparseCoefficients,
    downsample_dictionary,
    downsample_vector,
    normalize_vector,
    residual,
    stack_blocks,
)
from occlucode.core import FACE, OCCLUSION, normalize_columns
from occlucode.errors import (
    BadDimsError,
    DimMismatchError,
    DuplicateLabelError,
    UnknownLabelError,
    ZeroNormError,
)

from conftest import random_dictionary


# ---------------------------------------------------------------------------
# vectorize: an image is a row-major vector that keeps its grid shape


def test_vectorize_3_4_5_already_unit():
    v = normalize_vector(ImageVector(np.array([[0.6, 0.8]]), (1, 2)))
    assert np.allclose(v.data, [0.6, 0.8])
    assert v.normalized


def test_vectorize_flatten_identity():
    v = ImageVector(np.arange(6.0).reshape(2, 3) / 10, (2, 3))
    assert np.array_equal(v.data, np.arange(6.0) / 10)  # row major
    assert v.shape == (2, 3)


def test_vectorize_unit_norm_constant():
    v = normalize_vector(ImageVector(np.full((2, 2), 0.5), (2, 2)))
    assert np.allclose(v.data, [0.5] * 4)  # norm was already 1


def test_vectorize_zero_with_normalize_raises():
    v = ImageVector(np.zeros((2, 2)), (2, 2))
    with pytest.raises(ZeroNormError):
        normalize_vector(v)


def test_flatten_roundtrip(rng):
    vals = rng.uniform(size=(7, 5))
    v = ImageVector(vals, (7, 5))
    assert np.array_equal(v.data.reshape(v.shape), vals)


def test_image_vector_rejects_wrong_length():
    with pytest.raises(DimMismatchError):
        ImageVector(np.zeros((2, 3)), (2, 2))


def test_normalize_vector():
    v = ImageVector(np.array([3.0, 4.0]), (1, 2))
    n = normalize_vector(v)
    assert np.allclose(n.data, [0.6, 0.8])
    assert normalize_vector(n) is n


# ---------------------------------------------------------------------------
# downsample


def test_downsample_mean_of_all():
    v = ImageVector(np.array([0.0, 0.0, 1.0, 1.0]), (2, 2))
    out = downsample_vector(v, 1, 1)
    assert out.data[0] == pytest.approx(0.5)


def test_downsample_constant_preserved():
    v = ImageVector(np.full(16, 0.3), (4, 4))
    out = downsample_vector(v, 2, 2)
    assert np.allclose(out.data, 0.3)


def test_downsample_83x60_to_12x10_gives_120_features(rng):
    v = ImageVector(rng.uniform(size=83 * 60), (83, 60))
    out = downsample_vector(v, 12, 10)
    assert out.m == 120 and out.shape == (12, 10)


def test_downsample_preserves_mean_when_divisible(rng):
    v = ImageVector(rng.uniform(size=8 * 6), (8, 6))
    out = downsample_vector(v, 4, 3)
    assert out.data.mean() == pytest.approx(v.data.mean(), abs=1e-12)


def test_downsample_bad_targets():
    v = ImageVector(np.zeros(16), (4, 4))
    for th, tw in [(0, 2), (2, 0), (5, 2), (2, 5)]:
        with pytest.raises(BadDimsError):
            downsample_vector(v, th, tw)


def _block_means_oracle(values, target_h, target_w):
    """Mean of each cell of the uniform pixel partition, one cell at a time."""
    h, w = values.shape
    re = np.rint(np.arange(target_h + 1) * (h / target_h)).astype(int)
    ce = np.rint(np.arange(target_w + 1) * (w / target_w)).astype(int)
    re[-1], ce[-1] = h, w
    out = np.empty((target_h, target_w))
    for i in range(target_h):
        for j in range(target_w):
            out[i, j] = values[re[i] : re[i + 1], ce[j] : ce[j + 1]].mean()
    return out


@pytest.mark.parametrize(
    "shape,target", [((30, 24), (12, 10)), ((83, 60), (12, 10)), ((7, 5), (3, 2)),
                     ((6, 4), (6, 4)), ((5, 9), (1, 1))]
)
def test_downsampling_matches_block_mean_oracle(rng, shape, target):
    # signed, unit-norm vectors: no mapping into [0, 1] is needed
    v = normalize_vector(ImageVector(rng.standard_normal(shape[0] * shape[1]), shape))
    small = downsample_vector(v, *target)
    assert small.shape == target and not small.normalized
    assert np.allclose(small.data, _block_means_oracle(v.data.reshape(shape), *target).ravel(),
                       rtol=0, atol=1e-14)
    d = random_dictionary(rng, shape[0] * shape[1], 5, [("a", 3), ("b", 2)])
    dd = downsample_dictionary(d, shape, *target)
    cols = np.stack([_block_means_oracle(d.atoms[:, j].reshape(shape), *target).ravel()
                     for j in range(d.n)], axis=1)
    assert dd.blocks == d.blocks
    assert np.allclose(dd.atoms, cols / np.linalg.norm(cols, axis=0), rtol=0, atol=1e-14)


def test_downsample_vector_and_dictionary_reject_bad_dims(rng):
    v = ImageVector(rng.standard_normal(12), (4, 3))
    with pytest.raises(BadDimsError):
        downsample_vector(v, 5, 3)
    d = random_dictionary(rng, 12, 2)
    with pytest.raises(DimMismatchError):
        downsample_dictionary(d, (5, 3), 2, 2)
    with pytest.raises(BadDimsError):
        downsample_dictionary(d, (4, 3), 2, 4)


# ---------------------------------------------------------------------------
# blocks


def test_block_partition_sums_to_identity(rng):
    d = random_dictionary(rng, 6, 9, [("a", 3), ("b", 4), ("c", 2)])
    covered = np.zeros(9, dtype=int)
    for lbl in ("a", "b", "c"):
        covered[d.block(lbl).cols] += 1
    assert np.array_equal(covered, np.ones(9, dtype=int))
    assert d.starts.tolist() == [0, 3, 7]
    with pytest.raises(UnknownLabelError):
        d.block("d")


def test_stack_blocks_lays_groups_side_by_side(rng):
    a, b, c = (normalize_columns(rng.standard_normal((5, k))) for k in (2, 3, 1))
    d = stack_blocks([("a", FACE, a), ("b", FACE, b), ("x", OCCLUSION, c)])
    assert d.blocks == (Block("a", FACE, 0, 2), Block("b", FACE, 2, 5),
                        Block("x", OCCLUSION, 5, 6))
    assert np.array_equal(d.atoms, np.concatenate([a, b, c], axis=1))
    with pytest.raises(DimMismatchError):
        stack_blocks([])


def test_dictionary_invariants():
    atoms = normalize_columns(np.eye(3))
    with pytest.raises(DuplicateLabelError):
        BlockedDictionary(atoms, (Block("x", FACE, 0, 2), Block("x", FACE, 2, 3)))
    with pytest.raises(ValueError):  # gap in coverage
        BlockedDictionary(atoms, (Block("x", FACE, 0, 1), Block("y", FACE, 2, 3)))
    with pytest.raises(ValueError):  # face after occlusion
        BlockedDictionary(
            atoms, (Block("x", OCCLUSION, 0, 2), Block("y", FACE, 2, 3))
        )
    with pytest.raises(ZeroNormError):
        BlockedDictionary(np.eye(3) * 2.0, (Block("x", FACE, 0, 3),))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dictionary_and_vector_reject_non_finite(bad):
    atoms = np.eye(3)
    atoms[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        BlockedDictionary(atoms, (Block("x", FACE, 0, 3),))
    with pytest.raises(ValueError, match="finite"):
        ImageVector(atoms[:, 2], (1, 3), normalized=True)


def test_dictionary_is_immutable(rng):
    d = random_dictionary(rng, 4, 4)
    with pytest.raises(ValueError):
        d.atoms[0, 0] = 7.0


# ---------------------------------------------------------------------------
# residual


def test_residual_exact_atom(rng):
    d = random_dictionary(rng, 5, 4, [("a", 2), ("b", 2)])
    u = ImageVector(d.atoms[:, 0], (1, 5))
    coef = SparseCoefficients(np.array([1.0, 0.0, 0.0, 0.0]))
    assert residual(u, d, coef, {"a"}) == pytest.approx(0.0, abs=1e-12)


def test_residual_zero_code_gives_input_norm(rng):
    d = random_dictionary(rng, 5, 4, [("a", 2), ("b", 2)])
    u = ImageVector(rng.standard_normal(5), (1, 5))
    coef = SparseCoefficients(np.zeros(4))
    assert residual(u, d, coef, {"a"}) == pytest.approx(np.linalg.norm(u.data))


def test_residual_scaled_column_exact_solve(rng):
    # u = 2 * col3 of a random 6x4 dict; exact coefficient kills the residual
    d = random_dictionary(rng, 6, 4, [("a", 2), ("b", 2)])
    u = ImageVector(2.0 * d.atoms[:, 2], (2, 3))
    coef = SparseCoefficients(np.array([0.0, 0.0, 2.0, 0.0]))
    assert residual(u, d, coef, {"b"}) < 1e-8


def test_residual_all_labels_is_full_reconstruction(rng):
    d = random_dictionary(rng, 6, 5, [("a", 3), ("b", 2)])
    u = ImageVector(rng.standard_normal(6), (2, 3))
    coef = SparseCoefficients(rng.standard_normal(5))
    direct = np.linalg.norm(u.data - d.atoms @ coef.values)
    assert residual(u, d, coef, {"a", "b"}) == pytest.approx(direct, abs=1e-12)


def test_residual_dim_mismatch(rng):
    d = random_dictionary(rng, 6, 4)
    u = ImageVector(np.zeros(5), (1, 5))
    with pytest.raises(DimMismatchError):
        residual(u, d, SparseCoefficients(np.zeros(4)), {"all"})


# ---------------------------------------------------------------------------
# dependencies: the package imports nothing beyond the standard library,
# numpy and scipy


def test_package_imports_only_stdlib_numpy_and_scipy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy"}
    found = set()
    for path in pathlib.Path(occlucode.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found |= {(path.name, a.name.split(".")[0]) for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert found and not {(f, name) for f, name in found if name not in allowed}


def test_blocks_are_laid_out_only_by_core_and_read_by_imageio():
    """core.stack_blocks assigns every column range; imageio only reads
    ranges back from a file."""
    callers = set()
    for path in pathlib.Path(occlucode.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "Block":
                    callers.add(path.name)
    assert callers == {"core.py", "imageio.py"}
