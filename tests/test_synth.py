"""Synthetic corpus generation: determinism, subspace structure, occlusion
geometry."""

import numpy as np
import pytest
from scipy.ndimage import label as cc_label

from occlucode import (
    CorpusPlan,
    OcclusionShape,
    SynthSpec,
    apply_occlusion,
    generate_corpus,
    generate_gallery,
)
from occlucode.errors import BadSpecError, UnknownShapeError
from occlucode.imageio import read_manifest


def test_spec_validation():
    with pytest.raises(BadSpecError):
        SynthSpec(classes=0)
    with pytest.raises(BadSpecError):
        SynthSpec(subspace_dim=9, samples_per_class=5)
    with pytest.raises(BadSpecError):
        OcclusionShape("x", "rectangle", 1.5)
    with pytest.raises(BadSpecError):
        OcclusionShape("x", "blob", 0.3)
    with pytest.raises(BadSpecError):
        SynthSpec(test_per_class=-1)
    assert SynthSpec(test_per_class=0).n_test == 0
    for count in ("collect_classes", "collect_per_class", "invalid_classes",
                  "invalid_per_class"):
        with pytest.raises(BadSpecError):
            CorpusPlan(**{count: -1})
        CorpusPlan(**{count: 0})


def test_two_classes_single_sample_exact():
    spec = SynthSpec(
        classes=2, samples_per_class=1, subspace_dim=1, height=10, width=8, seed=0
    )
    train, test = generate_gallery(spec)
    for v, label in test:
        b = train.block(label)
        atom = train.atoms[:, b.start]
        coef = (atom @ v.data) / (atom @ atom)
        # one basis image per class: test draws are scalar multiples
        assert np.linalg.norm(v.data - coef * atom) < 1e-8


def test_class_subspace_structure():
    spec = SynthSpec(
        classes=10, samples_per_class=4, subspace_dim=3, height=16, width=12, seed=1
    )
    train, test = generate_gallery(spec)
    for v, label in test[:10]:
        b = train.block(label)
        D = train.atoms[:, b.cols]
        coef, *_ = np.linalg.lstsq(D, v.data, rcond=None)
        assert np.linalg.norm(v.data - D @ coef) < 1e-8


@pytest.mark.parametrize("shape", [(30, 24), (5, 4), (3, 9, 7)])
@pytest.mark.parametrize("passes", [1, 2])
def test_smooth_equals_convolving_each_line(shape, passes):
    # oracle: the 5-tap kernel convolved along every column, then every row,
    # of each reflect-padded image, one line at a time
    from occlucode.synth import _BINOMIAL5, _smooth

    img = np.random.default_rng(4).standard_normal(shape)
    expect = img.reshape(-1, *shape[-2:]).copy()
    for _ in range(passes):
        for axis in (1, 2):
            pad = [(2, 2) if a == axis else (0, 0) for a in range(3)]
            expect = np.apply_along_axis(
                lambda r: np.convolve(r, _BINOMIAL5, mode="valid"), axis,
                np.pad(expect, pad, mode="reflect"))
    assert np.array_equal(_smooth(img, passes), expect.reshape(shape))


def test_class_bases_scale_each_image_to_unit_range():
    from occlucode.synth import _class_bases, _rng, _smooth

    spec = SynthSpec(classes=2, samples_per_class=3, height=12, width=10, seed=5)
    for i, stack in enumerate(_class_bases(spec, 3)):
        rng = _rng(spec, "basis", i)
        assert stack.shape == (3, 12, 10)
        for image in stack:  # one draw per image, in stack order
            raw = _smooth(rng.standard_normal((12, 10)))
            assert np.array_equal(image, (raw - raw.min()) / (raw.max() - raw.min()))


def test_gallery_deterministic():
    spec = SynthSpec(classes=4, samples_per_class=3, height=10, width=8, seed=7)
    t1, s1 = generate_gallery(spec)
    t2, s2 = generate_gallery(spec)
    assert np.array_equal(t1.atoms, t2.atoms)
    assert all(np.array_equal(a.data, b.data) for (a, _), (b, _) in zip(s1, s2))


def test_gallery_seed_changes_content():
    base = dict(classes=4, samples_per_class=3, height=10, width=8)
    t1, _ = generate_gallery(SynthSpec(seed=7, **base))
    t2, _ = generate_gallery(SynthSpec(seed=8, **base))
    assert not np.array_equal(t1.atoms, t2.atoms)


# ---------------------------------------------------------------------------
# occlusion


def _spec_with(shapes, **kw):
    defaults = dict(classes=3, samples_per_class=3, height=20, width=16, seed=2)
    defaults.update(kw)
    return SynthSpec(occlusion_shapes=shapes, **defaults)


def test_lower_band_exact_pixel_count():
    spec = _spec_with((OcclusionShape("scarf", "lower-band", 0.6),))
    _, test = generate_gallery(spec)
    v, _ = test[0]
    occ, mask = apply_occlusion(v, "scarf", spec)
    m = v.m
    occluded = np.asarray(mask.support) == 0
    assert occluded.sum() == int(0.6 * m)
    # all occluded pixels in the bottom rows
    rows = np.where(occluded.reshape(20, 16).any(axis=1))[0]
    assert rows.min() >= 20 - int(np.ceil(0.6 * 20)) - 1


def test_rectangle_connected_region():
    spec = _spec_with((OcclusionShape("r", "rectangle", 0.25),))
    _, test = generate_gallery(spec)
    for v, _ in test[:5]:
        occ, mask = apply_occlusion(v, "r", spec)
        occluded = (np.asarray(mask.support) == 0).reshape(20, 16)
        assert occluded.sum() == int(0.25 * 320)
        _, n = cc_label(occluded)
        assert n == 1  # 4-connected single region


def test_occlusion_preserves_clean_pixels_when_noiseless():
    spec = _spec_with((OcclusionShape("r", "rectangle", 0.3),), seed=5)
    _, test = generate_gallery(spec)
    v, _ = test[0]
    occ, mask = apply_occlusion(v, "r", spec)
    keep = np.asarray(mask.support) == 1
    assert np.array_equal(occ.data[keep], v.data[keep])


def test_occlusion_with_noise_stays_in_range():
    spec = _spec_with(
        (OcclusionShape("r", "rectangle", 0.3),), noise_sigma=0.05, seed=5
    )
    _, test = generate_gallery(spec)
    occ, _ = apply_occlusion(test[0][0], "r", spec)
    assert occ.data.min() >= 0.0 and occ.data.max() <= 1.0


def test_occlusion_deterministic_per_image():
    spec = _spec_with((OcclusionShape("r", "rectangle", 0.25),))
    _, test = generate_gallery(spec)
    v, _ = test[0]
    o1, m1 = apply_occlusion(v, "r", spec)
    o2, m2 = apply_occlusion(v, "r", spec)
    assert np.array_equal(o1.data, o2.data)
    assert np.array_equal(m1.support, m2.support)


def test_category_textures_distinct():
    shapes = (
        OcclusionShape("a", "lower-band", 0.5),
        OcclusionShape("b", "lower-band", 0.5),
    )
    spec = _spec_with(shapes)
    from occlucode.synth import _texture

    ta = _texture(spec, shapes[0]).ravel()
    tb = _texture(spec, shapes[1]).ravel()
    ca = ta - ta.mean()
    cb = tb - tb.mean()
    corr = abs(ca @ cb) / (np.linalg.norm(ca) * np.linalg.norm(cb))
    assert corr < 0.3


def test_texture_drawn_once_per_spec_and_shape():
    from occlucode.synth import _texture

    shape = OcclusionShape("a", "lower-band", 0.5)
    t = _texture(_spec_with((shape,)), shape)
    assert _texture(_spec_with((shape,)), shape) is t  # an equal spec hits the cache
    assert not t.flags.writeable
    other = _texture(_spec_with((shape,), seed=1), shape)
    assert other is not t and not np.array_equal(other, t)


def test_unknown_shape_raises():
    spec = _spec_with((OcclusionShape("r", "rectangle", 0.25),))
    _, test = generate_gallery(spec)
    with pytest.raises(UnknownShapeError, match="unknown occlusion shape 'nope'"):
        apply_occlusion(test[0][0], "nope", spec)


def test_shape_names_nonempty_and_unique():
    with pytest.raises(BadSpecError):
        OcclusionShape("", "rectangle", 0.25)
    with pytest.raises(BadSpecError, match="'r'"):
        _spec_with((OcclusionShape("r", "rectangle", 0.25),
                    OcclusionShape("r", "lower-band", 0.5)))


# ---------------------------------------------------------------------------
# on-disk corpus


def test_generate_corpus_roundtrip(tmp_path):
    spec = SynthSpec(
        classes=3,
        samples_per_class=2,
        height=12,
        width=10,
        subspace_dim=2,
        occlusion_shapes=(OcclusionShape("r", "rectangle", 0.25),),
        seed=3,
    )
    plan = CorpusPlan(
        collect_classes=2,
        collect_per_class=2,
        test_shapes=("r",),
        invalid_classes=1,
        invalid_per_class=1,
    )
    manifest = generate_corpus(spec, plan, str(tmp_path))
    rows = read_manifest(str(tmp_path))
    roles = {r["role"] for r in rows}
    assert roles == {"gallery", "test", "collect", "invalid"}
    n_gallery = sum(r["role"] == "gallery" for r in rows)
    assert n_gallery == 3 * 2
    n_collect = sum(r["role"] == "collect" for r in rows)
    assert n_collect == 2 * 2
    # every referenced file exists
    for r in rows:
        assert (tmp_path / r["path"]).exists()
        if r["mask_path"] != "-":
            assert (tmp_path / r["mask_path"]).exists()


def test_generate_corpus_deterministic(tmp_path):
    import hashlib

    spec = SynthSpec(
        classes=2,
        samples_per_class=2,
        height=10,
        width=8,
        subspace_dim=2,
        occlusion_shapes=(OcclusionShape("r", "rectangle", 0.2),),
        seed=9,
    )
    plan = CorpusPlan(test_shapes=("r",))
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        generate_corpus(spec, plan, str(out))
        h = hashlib.sha256()
        for p in sorted(out.iterdir()):
            h.update(p.name.encode())
            h.update(p.read_bytes())
        digests.append(h.hexdigest())
    assert digests[0] == digests[1]


def test_generate_corpus_manifest_layout(tmp_path):
    # every role, two training shapes, one unknown shape, a clean test slot
    spec = SynthSpec(
        classes=2,
        samples_per_class=2,
        test_per_class=3,
        height=10,
        width=8,
        subspace_dim=1,
        occlusion_shapes=(
            OcclusionShape("r", "rectangle", 0.25),
            OcclusionShape("s", "upper-band", 0.2),
        ),
        seed=4,
    )
    plan = CorpusPlan(
        collect_classes=1,
        collect_per_class=2,
        test_shapes=("r", "", "u"),
        invalid_classes=1,
        invalid_per_class=3,
        unknown_shapes=(OcclusionShape("u", "lower-band", 0.3),),
    )
    generate_corpus(spec, plan, str(tmp_path))
    # per class: gallery then test rows; then collect per shape; then invalid
    expected = [
        ("gallery_class000_00.pgm", "class000", "-", "-", "gallery"),
        ("gallery_class000_01.pgm", "class000", "-", "-", "gallery"),
        ("test_class000_00.pgm", "class000", "r", "test_class000_00_mask.pgm", "test"),
        ("test_class000_01.pgm", "class000", "-", "-", "test"),
        ("test_class000_02.pgm", "class000", "u", "test_class000_02_mask.pgm", "test"),
        ("gallery_class001_00.pgm", "class001", "-", "-", "gallery"),
        ("gallery_class001_01.pgm", "class001", "-", "-", "gallery"),
        ("test_class001_00.pgm", "class001", "r", "test_class001_00_mask.pgm", "test"),
        ("test_class001_01.pgm", "class001", "-", "-", "test"),
        ("test_class001_02.pgm", "class001", "u", "test_class001_02_mask.pgm", "test"),
        ("collect_r_class000_00.pgm", "class000", "r", "collect_r_class000_00_mask.pgm", "collect"),
        ("collect_r_class000_01.pgm", "class000", "r", "collect_r_class000_01_mask.pgm", "collect"),
        ("collect_s_class000_00.pgm", "class000", "s", "collect_s_class000_00_mask.pgm", "collect"),
        ("collect_s_class000_01.pgm", "class000", "s", "collect_s_class000_01_mask.pgm", "collect"),
        ("invalid_invalid000_00.pgm", "invalid000", "r", "invalid_invalid000_00_mask.pgm", "invalid"),
        ("invalid_invalid000_01.pgm", "invalid000", "-", "-", "invalid"),
        ("invalid_invalid000_02.pgm", "invalid000", "u", "invalid_invalid000_02_mask.pgm", "invalid"),
    ]
    rows = read_manifest(str(tmp_path))
    fields = ("path", "face_label", "occlusion_label", "mask_path", "role")
    assert [tuple(r[k] for k in fields) for r in rows] == expected
