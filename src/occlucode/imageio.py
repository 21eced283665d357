"""File formats: binary PGM images, dictionary/sample-matrix pairs, and
corpus manifests.

A matrix on disk is a two-file pair sharing a path prefix:
  <prefix>.json  -- metadata: m, n, block list, optional sample fields
  <prefix>.f64   -- raw little-endian float64 values, column-major
"""

from __future__ import annotations

import json
import os
import re

import numpy as np

from .core import Block, BlockedDictionary, ImageVector
from .errors import FormatError


# ---------------------------------------------------------------------------
# PGM (portable graymap, binary "P5", maxval 255)


def write_pgm(path: str, img: ImageVector) -> None:
    if img.data.min() < 0.0 or img.data.max() > 1.0:
        raise ValueError(f"{path}: image values must lie in [0, 1]")
    data = np.rint(img.data * 255.0).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_pgm(path: str) -> ImageVector:
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(b"P5"):
        raise FormatError(f"{path}: not a binary PGM (missing P5 magic)")
    # magic, then width, height and maxval in decimal digits, each after
    # whitespace or '#' comments, then the one whitespace byte before the
    # pixels
    header = re.match(rb"P5" + rb"(?:\s|#[^\n]*)+(\d+)" * 3 + rb"\s", raw)
    if header is None:
        raise FormatError(f"{path}: bad PGM header")
    width, height, maxval = (int(t) for t in header.groups())
    pos = header.end()
    if width < 1 or height < 1:
        raise FormatError(f"{path}: image dimensions must be positive")
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    if len(raw) - pos < width * height:
        raise FormatError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=width * height, offset=pos)
    return ImageVector(pixels / 255.0, (height, width))


# ---------------------------------------------------------------------------
# matrix pairs

BLOCK_FIELDS = ("label", "kind", "start", "stop")


def save_matrix(prefix: str, mat: np.ndarray, blocks=None, extra: dict | None = None):
    m, n = mat.shape
    meta = {"m": int(m), "n": int(n)}
    if blocks is not None:
        meta["blocks"] = [{k: getattr(b, k) for k in BLOCK_FIELDS} for b in blocks]
    if extra:
        meta.update(extra)
    with open(prefix + ".json", "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
        f.write("\n")
    np.asarray(mat, dtype="<f8").T.tofile(prefix + ".f64")  # column-major


def load_matrix(prefix: str) -> tuple[np.ndarray, dict]:
    with open(prefix + ".json") as f:
        meta = json.load(f)
    if not isinstance(meta, dict) or not all(
            type(meta.get(k)) is int and meta[k] >= 0 for k in ("m", "n")):
        raise FormatError(f"{prefix}.json: expected an object with integers m, n >= 0")
    m, n = meta["m"], meta["n"]
    data = np.fromfile(prefix + ".f64", dtype="<f8")
    if data.size != m * n:
        raise FormatError(f"{prefix}.f64: expected {m * n} values, found {data.size}")
    return data.reshape(n, m).T.copy(), meta


def save_dictionary(prefix: str, dictionary: BlockedDictionary) -> None:
    save_matrix(prefix, dictionary.atoms, dictionary.blocks)


def load_dictionary(prefix: str) -> BlockedDictionary:
    mat, meta = load_matrix(prefix)
    blocks = meta.get("blocks")
    if not isinstance(blocks, list) or not all(
            isinstance(b, dict) and all(k in b for k in BLOCK_FIELDS)
            and type(b["start"]) is type(b["stop"]) is int for b in blocks):
        raise FormatError(f"{prefix}.json: missing or malformed block list")
    return BlockedDictionary(mat, tuple(Block(*(b[k] for k in BLOCK_FIELDS)) for b in blocks))


# ---------------------------------------------------------------------------
# corpus manifest

MANIFEST_FIELDS = ("path", "face_label", "occlusion_label", "mask_path", "role")
MANIFEST_NAME = "manifest.txt"


def write_manifest(corpus_dir: str, rows: list[dict]) -> str:
    path = os.path.join(corpus_dir, MANIFEST_NAME)
    with open(path, "w") as f:
        f.write("\t".join(MANIFEST_FIELDS) + "\n")
        for row in rows:
            f.write("\t".join(str(row.get(k, "-")) for k in MANIFEST_FIELDS) + "\n")
    return path


def read_manifest(corpus_dir: str) -> list[dict]:
    path = os.path.join(corpus_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise FormatError(f"no {MANIFEST_NAME} in {corpus_dir}")
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        if tuple(header) != MANIFEST_FIELDS:
            raise FormatError(f"{path}: unexpected manifest header {header}")
        rows = []
        for line in f:
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(MANIFEST_FIELDS):
                raise FormatError(f"{path}: bad manifest row: {line!r}")
            rows.append(dict(zip(MANIFEST_FIELDS, parts)))
    return rows
