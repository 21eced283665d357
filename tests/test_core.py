"""Domain types, vectorization, downsampling, block bookkeeping, residuals."""

import numpy as np
import pytest

from occlucode import (
    Block,
    BlockedDictionary,
    ImageGrid,
    ImageVector,
    SparseCoefficients,
    block_select,
    downsample,
    normalize_vector,
    residual,
    vectorize,
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
# vectorize


def test_vectorize_3_4_5_already_unit():
    g = ImageGrid(1, 2, np.array([[0.6, 0.8]]))
    v = vectorize(g, normalize=True)
    assert np.allclose(v.data, [0.6, 0.8])
    assert v.normalized


def test_vectorize_flatten_identity():
    g = ImageGrid(2, 2, np.full((2, 2), 0.5))
    assert np.array_equal(vectorize(g).data, [0.5] * 4)


def test_vectorize_unit_norm_constant():
    g = ImageGrid(2, 2, np.full((2, 2), 0.5))
    v = vectorize(g, normalize=True)
    assert np.allclose(v.data, [0.5] * 4)  # norm was already 1


def test_vectorize_zero_with_normalize_raises():
    g = ImageGrid(2, 2, np.zeros((2, 2)))
    with pytest.raises(ZeroNormError):
        vectorize(g, normalize=True)


def test_flatten_roundtrip(rng):
    vals = rng.uniform(size=(7, 5))
    g = ImageGrid(7, 5, vals)
    assert np.array_equal(vectorize(g).to_grid().values, g.values)


def test_image_grid_rejects_out_of_range():
    with pytest.raises(ValueError):
        ImageGrid(1, 2, np.array([[0.5, 1.2]]))
    with pytest.raises(DimMismatchError):
        ImageGrid(2, 2, np.zeros((2, 3)))


def test_normalize_vector():
    v = ImageVector(np.array([3.0, 4.0]), (1, 2))
    n = normalize_vector(v)
    assert np.allclose(n.data, [0.6, 0.8])
    assert normalize_vector(n) is n


# ---------------------------------------------------------------------------
# downsample


def test_downsample_mean_of_all():
    g = ImageGrid(2, 2, np.array([[0.0, 0.0], [1.0, 1.0]]))
    out = downsample(g, 1, 1)
    assert out.values[0, 0] == pytest.approx(0.5)


def test_downsample_constant_preserved():
    g = ImageGrid(4, 4, np.full((4, 4), 0.3))
    out = downsample(g, 2, 2)
    assert np.allclose(out.values, 0.3)


def test_downsample_83x60_to_12x10_gives_120_features(rng):
    g = ImageGrid(83, 60, rng.uniform(size=(83, 60)))
    out = downsample(g, 12, 10)
    assert out.size == 120


def test_downsample_preserves_mean_when_divisible(rng):
    g = ImageGrid(8, 6, rng.uniform(size=(8, 6)))
    out = downsample(g, 4, 3)
    assert out.values.mean() == pytest.approx(g.values.mean(), abs=1e-12)


def test_downsample_bad_targets():
    g = ImageGrid(4, 4, np.zeros((4, 4)))
    for th, tw in [(0, 2), (2, 0), (5, 2), (2, 5)]:
        with pytest.raises(BadDimsError):
            downsample(g, th, tw)


# ---------------------------------------------------------------------------
# blocks


def _two_block_dict():
    atoms = normalize_columns(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    return BlockedDictionary(
        atoms, (Block("A", FACE, 0, 2), Block("B", FACE, 2, 3))
    )


def test_block_select_examples():
    d = _two_block_dict()
    coef = SparseCoefficients(np.array([1.0, 2.0, 3.0]))
    a = block_select(coef, d, "A")
    b = block_select(coef, d, "B")
    assert np.array_equal(a.values, [1, 2, 0])
    assert np.array_equal(b.values, [0, 0, 3])
    assert np.array_equal(block_select(a, d, "B").values, [0, 0, 0])


def test_block_select_unknown_label():
    with pytest.raises(UnknownLabelError):
        block_select(SparseCoefficients(np.zeros(3)), _two_block_dict(), "C")


def test_block_partition_sums_to_identity(rng):
    d = random_dictionary(rng, 6, 9, [("a", 3), ("b", 4), ("c", 2)])
    coef = SparseCoefficients(rng.standard_normal(9))
    total = sum(block_select(coef, d, lbl).values for lbl in ("a", "b", "c"))
    assert np.allclose(total, coef.values)
    assert d.starts.tolist() == [0, 3, 7]


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
