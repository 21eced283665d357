"""PGM images, matrix pairs, and corpus manifests."""

import numpy as np
import pytest

from occlucode import Block, BlockedDictionary, ImageVector
from occlucode.core import FACE, OCCLUSION, normalize_columns
from occlucode.imageio import (
    FormatError,
    load_dictionary,
    load_matrix,
    read_manifest,
    read_pgm,
    save_dictionary,
    save_matrix,
    write_manifest,
    write_pgm,
)


def test_pgm_roundtrip(tmp_path, rng):
    # quantized values survive the write/read cycle exactly
    raw = np.rint(rng.uniform(size=(9, 7)) * 255) / 255.0
    img = ImageVector(raw, (9, 7))
    path = str(tmp_path / "x.pgm")
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == (9, 7)
    assert np.array_equal(back.data, img.data)


@pytest.mark.parametrize("bad", [1.2, -0.1])
def test_pgm_write_rejects_out_of_range(tmp_path, bad):
    path = tmp_path / "r.pgm"
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        write_pgm(str(path), ImageVector(np.array([0.5, bad]), (1, 2)))
    assert not path.exists()


def test_pgm_header_with_comment(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x80\xff\x40")
    img = read_pgm(str(path))
    assert img.shape == (2, 2)
    assert img.data[1] == pytest.approx(128 / 255)


def test_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(FormatError):
        read_pgm(str(path))


def test_pgm_rejects_truncated(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(FormatError):
        read_pgm(str(path))


def test_pgm_rejects_empty_dims(tmp_path):
    path = tmp_path / "e.pgm"
    path.write_bytes(b"P5\n0 2\n255\n")
    with pytest.raises(FormatError, match="positive"):
        read_pgm(str(path))


@pytest.mark.parametrize("header", [b"P5\n1_0 1\n255\n", b"P5\n+4 1\n255\n",
                                    b"P5\n1 1\n255x"])
def test_pgm_header_reads_digits_only(tmp_path, header):
    # int() would read 1_0 as 10 and +4 as 4; a maxval must end in whitespace
    path = tmp_path / "d.pgm"
    path.write_bytes(header + b"\x00" * 16)
    with pytest.raises(FormatError, match="bad PGM header"):
        read_pgm(str(path))


def test_pgm_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(FormatError):
        read_pgm(str(path))


def test_matrix_pair_roundtrip(tmp_path, rng):
    mat = rng.standard_normal((6, 4))
    prefix = str(tmp_path / "mat")
    save_matrix(prefix, mat, extra={"category": "scarf"})
    back, meta = load_matrix(prefix)
    assert np.array_equal(back, mat)
    assert meta["category"] == "scarf"
    assert (meta["m"], meta["n"]) == (6, 4)


def test_matrix_file_is_column_major(tmp_path):
    mat = np.arange(6.0).reshape(2, 3)
    prefix = str(tmp_path / "cm")
    save_matrix(prefix, mat)
    raw = np.fromfile(prefix + ".f64", dtype="<f8")
    assert np.array_equal(raw, mat.T.ravel())  # columns contiguous on disk


def test_matrix_size_mismatch(tmp_path, rng):
    prefix = str(tmp_path / "bad")
    save_matrix(prefix, rng.standard_normal((3, 3)))
    with open(prefix + ".f64", "wb") as f:
        f.write(b"\x00" * 16)
    with pytest.raises(FormatError):
        load_matrix(prefix)
    # metadata that is not an object with integers m, n >= 0
    for meta in ('{"n": 3}', '{"m": 3, "n": 3.0}', '{"m": "6", "n": 3}', "[3, 3]"):
        with open(prefix + ".json", "w") as f:
            f.write(meta)
        with pytest.raises(FormatError):
            load_matrix(prefix)


def test_dictionary_roundtrip(tmp_path, rng):
    atoms = normalize_columns(rng.standard_normal((8, 5)))
    d = BlockedDictionary(
        atoms, (Block("c1", FACE, 0, 3), Block("occ", OCCLUSION, 3, 5))
    )
    prefix = str(tmp_path / "dict")
    save_dictionary(prefix, d)
    back = load_dictionary(prefix)
    assert np.array_equal(back.atoms, d.atoms)
    assert back.blocks == d.blocks


def test_dictionary_requires_blocks(tmp_path, rng):
    prefix = str(tmp_path / "nb")
    atoms = normalize_columns(rng.standard_normal((4, 2)))
    save_matrix(prefix, atoms)
    with pytest.raises(FormatError):
        load_dictionary(prefix)
    # a block list that is not a list of objects with every block field,
    # start and stop integers
    entry = {"label": "occ", "kind": OCCLUSION, "start": 0}
    for blocks in ([entry], entry, ["occ"], [dict(entry, start="0", stop=2)]):
        save_matrix(prefix, atoms, extra={"blocks": blocks})
        with pytest.raises(FormatError):
            load_dictionary(prefix)


def test_manifest_roundtrip(tmp_path):
    rows = [
        {
            "path": "a.pgm",
            "face_label": "class000",
            "occlusion_label": "-",
            "mask_path": "-",
            "role": "gallery",
        },
        {
            "path": "b.pgm",
            "face_label": "class001",
            "occlusion_label": "scarf",
            "mask_path": "b_mask.pgm",
            "role": "test",
        },
    ]
    write_manifest(str(tmp_path), rows)
    assert read_manifest(str(tmp_path)) == rows


def test_manifest_missing(tmp_path):
    with pytest.raises(FormatError):
        read_manifest(str(tmp_path))


def test_manifest_bad_header(tmp_path):
    (tmp_path / "manifest.txt").write_text("who\tknows\n")
    with pytest.raises(FormatError):
        read_manifest(str(tmp_path))
