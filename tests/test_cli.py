"""End-to-end command-line pipeline on a tiny corpus: synth -> collect ->
train -> classify / roc / sweep, plus exit codes and determinism."""

import hashlib
import os
import shutil

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from occlucode import Block, BlockedDictionary, solvers
from occlucode.cli import (
    build_parser,
    main,
    parse_hw,
    parse_shapes,
    read_config,
    with_config,
)
from occlucode.core import OCCLUSION
from occlucode.imageio import load_dictionary, save_dictionary

CORPUS_FLAGS = [
    "--classes", "4",
    "--samples-per-class", "4",
    "--height", "20",
    "--width", "16",
    "--subspace-dim", "2",
    "--noise-sigma", "0.005",
    "--seed", "3",
    "--shapes", "band:lower-band:0.4",
    "--test-shapes", "band",
    "--collect-classes", "3",
    "--collect-per-class", "3",
    "--invalid-classes", "1",
    "--invalid-per-class", "2",
]

MASK_FLAGS = ["--beta", "1.5"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out", str(out)] + CORPUS_FLAGS) == 0
    return str(out)


@pytest.fixture(scope="module")
def samples(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("samples")
    rc = main(
        ["collect", "--corpus", corpus, "--out", str(out), "--strategy", "soc"]
        + MASK_FLAGS
    )
    assert rc == 0
    return os.path.join(str(out), "samples_band")


@pytest.fixture(scope="module")
def occdict(samples, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    rc = main(
        ["train", "--samples", samples, "--out", str(out), "--atoms", "4",
         "--iterations", "10"]
    )
    assert rc == 0
    return os.path.join(str(out), "occdict_band")


def _dir_digest(path, suffix=".csv"):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        if name.endswith(suffix):
            h.update(name.encode())
            with open(os.path.join(path, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# helpers


def test_parse_shapes():
    shapes = parse_shapes("a:rectangle:0.25,b:lower-band:0.5")
    assert [s.name for s in shapes] == ["a", "b"]
    assert shapes[1].fraction == 0.5
    assert parse_shapes("") == ()


def test_parse_hw():
    assert parse_hw("12x10") == (12, 10)


def test_read_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\nepsilon = 0.05\nmode=l1  # trailing\n\nmode = src\n")
    assert read_config(str(p)) == [
        ("epsilon", "0.05"), ("mode", "l1"), ("mode", "src")]


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_manifest_and_pgms(corpus):
    names = os.listdir(corpus)
    assert "manifest.txt" in names
    assert sum(n.startswith("gallery_") for n in names) == 4 * 4
    assert any(n.startswith("collect_") for n in names)
    assert any(n.startswith("invalid_") for n in names)


def test_synth_deterministic(tmp_path):
    digests = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert main(["synth", "--out", str(out)] + CORPUS_FLAGS) == 0
        h = hashlib.sha256()
        for name in sorted(os.listdir(out)):
            with open(out / name, "rb") as f:
                h.update(name.encode())
                h.update(f.read())
        digests.append(h.hexdigest())
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# collect / train


def test_collect_outputs(samples):
    assert os.path.exists(samples + ".json")
    assert os.path.exists(samples + ".f64")
    out_dir = os.path.dirname(samples)
    assert os.path.exists(os.path.join(out_dir, "rejected.csv"))
    assert os.path.exists(os.path.join(out_dir, "timings.txt"))


def test_collect_samples_unit_norm(samples):
    from occlucode.imageio import load_matrix

    mat, meta = load_matrix(samples)
    assert meta["category"] == "band"
    assert np.allclose(np.linalg.norm(mat, axis=0), 1.0, atol=1e-9)


def test_collect_esrc_matches_module(corpus, tmp_path):
    from occlucode import collect_esrc, normalize_vector
    from occlucode.cli import load_gallery, load_image_vector
    from occlucode.imageio import load_matrix

    out = tmp_path / "esrc"
    rc = main(
        ["collect", "--corpus", corpus, "--out", str(out), "--strategy", "esrc"]
    )
    assert rc == 0
    mat, _ = load_matrix(str(out / "samples_band"))
    gallery, shape, rows = load_gallery(corpus)
    collect_rows = [r for r in rows if r["role"] == "collect"]
    u = normalize_vector(load_image_vector(corpus, collect_rows[0], shape))
    expect = collect_esrc(u, gallery.subdict(collect_rows[0]["face_label"]))
    assert np.allclose(mat[:, 0], expect.data, atol=1e-12)


def test_collect_rejects_images_whose_lad_fit_fails(corpus, tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        return OptimizeResult(success=False, status=4, message="numerical difficulties")

    monkeypatch.setattr(solvers, "linprog", failing)
    out = tmp_path / "collect"
    rc = main(["collect", "--corpus", corpus, "--out", str(out)] + MASK_FLAGS)
    assert rc == 0
    with open(out / "rejected.csv") as f:
        rows = f.read().strip().splitlines()[1:]
    assert len(rows) == 3 * 3  # every collect image
    assert all(r.split(",")[1] == "DegenerateError" for r in rows)


def test_train_outputs(occdict):
    from occlucode.imageio import load_dictionary

    d = load_dictionary(occdict)
    assert d.n == 4
    assert d.blocks[0].label == "band"
    trace_path = os.path.join(os.path.dirname(occdict), "trace_band.csv")
    with open(trace_path) as f:
        lines = f.read().strip().splitlines()
    assert lines[0] == "iteration,frobenius_error"
    errs = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(errs) == 10
    assert all(b <= a + 1e-10 for a, b in zip(errs, errs[1:]))


def test_train_atoms_equal_samples(samples, tmp_path):
    # atom_count = p: every atom is a (sign-fixed) sample, error ~ 0
    from occlucode.imageio import load_matrix

    mat, _ = load_matrix(samples)
    out = tmp_path / "full"
    rc = main(
        ["train", "--samples", samples, "--out", str(out),
         "--atoms", str(mat.shape[1]), "--iterations", "2",
         "--sparsity-budget", "1"]
    )
    assert rc == 0
    with open(out / "trace_band.csv") as f:
        last = float(f.read().strip().splitlines()[-1].split(",")[1])
    assert last < 1e-6


# ---------------------------------------------------------------------------
# classify / roc / sweep


def test_classify_structured(corpus, occdict, tmp_path):
    out = tmp_path / "cls"
    rc = main(
        ["classify", "--corpus", corpus, "--occdict", occdict,
         "--out", str(out), "--mode", "structured"]
    )
    assert rc == 0
    with open(out / "results.csv") as f:
        lines = f.read().strip().splitlines()
    header = lines[0].split(",")
    assert header[:6] == [
        "image", "role", "true_face", "true_occlusion", "pred_face",
        "pred_occlusion",
    ]
    test_rows = [l.split(",") for l in lines[1:] if l.split(",")[1] == "test"]
    correct = sum(r[2] == r[4] for r in test_rows)
    assert correct / len(test_rows) >= 0.8


def test_classify_deterministic(corpus, occdict, tmp_path):
    digests = []
    for sub in ("d1", "d2"):
        out = tmp_path / sub
        rc = main(
            ["classify", "--corpus", corpus, "--occdict", occdict,
             "--out", str(out), "--mode", "l1"]
        )
        assert rc == 0
        digests.append(_dir_digest(str(out)))
    assert digests[0] == digests[1]


def test_classify_src_mode(corpus, tmp_path):
    out = tmp_path / "src"
    rc = main(
        ["classify", "--corpus", corpus, "--out", str(out), "--mode", "src"]
    )
    assert rc == 0
    assert (out / "results.csv").exists()


def test_roc_output(corpus, occdict, tmp_path):
    out = tmp_path / "roc"
    rc = main(
        ["roc", "--corpus", corpus, "--occdict", occdict, "--out", str(out)]
    )
    assert rc == 0
    with open(out / "roc.csv") as f:
        lines = f.read().strip().splitlines()
    assert lines[0] == "theta,tpr_face,fpr_face,tpr_occlusion,fpr_occlusion"
    assert len(lines) == 102  # theta 0.00 .. 1.00
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == 1.0 and last[1] == 1.0  # every valid accepted at theta=1


def test_sweep_sizes(corpus, samples, tmp_path):
    out = tmp_path / "sweep"
    rc = main(
        ["sweep", "--corpus", corpus, "--samples", samples, "--out", str(out),
         "--sizes", "0,2,4", "--iterations", "5", "--mode", "l1"]
    )
    assert rc == 0
    with open(out / "sweep.csv") as f:
        lines = f.read().strip().splitlines()
    assert lines[0] == "occlusion_atoms,accuracy"
    sizes = [int(l.split(",")[0]) for l in lines[1:]]
    assert sizes == [0, 2, 4]


# ---------------------------------------------------------------------------
# config file and flag precedence


def test_config_file_with_flag_override(corpus, occdict, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=l1\nepsilon=0.05\n")
    out1 = tmp_path / "from-config"
    rc = main(
        ["classify", "--corpus", corpus, "--occdict", occdict,
         "--out", str(out1), "--config", str(cfg)]
    )
    assert rc == 0
    out2 = tmp_path / "flag-wins"
    rc = main(
        ["classify", "--corpus", corpus, "--occdict", occdict,
         "--out", str(out2), "--config", str(cfg), "--mode", "l1"]
    )
    assert rc == 0
    assert _dir_digest(str(out1)) == _dir_digest(str(out2))


def _write_config(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return str(cfg)


def test_config_values_go_ahead_of_flags(tmp_path):
    cfg = _write_config(tmp_path, "mode = l1\noccdict = a\nepsilon = 0.1\n")
    argv = ["classify", "--corpus", "c", "--out", "o", "--config", cfg,
            "--occdict", "b", "--epsilon", "0.2"]
    args = build_parser().parse_args(with_config(argv, "classify", cfg))
    assert args.mode == "l1"
    assert args.occdict == ["a", "b"]  # repeatable: the file's value adds
    assert args.epsilon == 0.2  # the explicit flag wins
    assert args.theta_face == 0.9  # default from the parser


def test_config_repeated_key_keeps_every_value(corpus, occdict, tmp_path):
    # a second occlusion dictionary: the first one under another label
    first = load_dictionary(occdict)
    other = str(tmp_path / "occdict_band2")
    save_dictionary(other, BlockedDictionary(
        first.atoms, (Block("band2", OCCLUSION, 0, first.n),)))
    cfg = _write_config(tmp_path, f"occdict = {occdict}\noccdict = {other}\n")
    base = ["classify", "--corpus", corpus, "--mode", "l1", "--features", "10x8",
            "--debug"]
    out1, out2 = tmp_path / "from-config", tmp_path / "from-flags"
    assert main(base + ["--out", str(out1), "--config", cfg]) == 0
    assert main(base + ["--out", str(out2), "--occdict", occdict,
                        "--occdict", other]) == 0
    assert _dir_digest(str(out1)) == _dir_digest(str(out2))
    with open(out1 / "results.csv") as f:
        rows = f.read().strip().splitlines()[1:]
    assert all("band=" in r and "band2=" in r for r in rows)


@pytest.mark.parametrize("value, debug_columns", [("true", True), ("false", False)])
def test_config_flag_takes_true_or_false(corpus, tmp_path, value, debug_columns):
    cfg = _write_config(tmp_path, f"debug = {value}\n")
    base = ["classify", "--corpus", corpus, "--mode", "l1", "--features", "10x8"]
    out1, out2 = tmp_path / "from-config", tmp_path / "from-flag"
    assert main(base + ["--out", str(out1), "--config", cfg]) == 0
    assert main(base + ["--out", str(out2)] + (["--debug"] if debug_columns else [])) == 0
    assert _dir_digest(str(out1)) == _dir_digest(str(out2))
    with open(out1 / "results.csv") as f:
        header = f.readline()
    assert ("face_residuals" in header) == debug_columns


def test_config_flag_other_value_exits_1(corpus, tmp_path):
    cfg = _write_config(tmp_path, "debug = yes please\n")
    rc = main(["classify", "--corpus", corpus, "--out", str(tmp_path / "o"),
               "--config", cfg])
    assert rc == 1
    assert not (tmp_path / "o").exists()


def test_labeled_typo_exits_1(corpus, tmp_path):
    cfg = _write_config(tmp_path, "labeled = ture\n")
    base = ["collect", "--corpus", corpus, "--strategy", "soc"] + MASK_FLAGS
    assert main(base + ["--out", str(tmp_path / "o1"), "--config", cfg]) == 1
    assert main(base + ["--out", str(tmp_path / "o2"), "--labeled", "ture"]) == 1
    assert not (tmp_path / "o1").exists() and not (tmp_path / "o2").exists()


def test_labeled_false_collects_with_the_lcd(corpus, tmp_path):
    from occlucode.imageio import load_matrix

    # the LCD of this 4-class gallery has 16 atoms, so h must be at most 16
    base = ["collect", "--corpus", corpus, "--strategy", "soc", "--h", "8"] + MASK_FLAGS
    mats = []
    for value in ("false", "NO"):
        out = tmp_path / value
        assert main(base + ["--out", str(out), "--labeled", value]) == 0
        mat, meta = load_matrix(str(out / "samples_band"))
        assert meta["labeled"] is False
        mats.append(mat)
    assert np.array_equal(mats[0], mats[1])
    assert main(base + ["--out", str(tmp_path / "true"), "--labeled", "True"]) == 0
    labeled, meta = load_matrix(str(tmp_path / "true" / "samples_band"))
    assert meta["labeled"] is True
    assert not np.array_equal(mats[0], labeled)


def test_config_unknown_key_exits_1(corpus, occdict, tmp_path):
    cfg = _write_config(tmp_path, "epsilonn = 0.9\n")
    rc = main(
        ["classify", "--corpus", corpus, "--occdict", occdict,
         "--out", str(tmp_path / "o"), "--config", cfg]
    )
    assert rc == 1
    assert not (tmp_path / "o").exists()


def test_config_bad_choice_exits_1_for_sweep(corpus, samples, tmp_path):
    cfg = _write_config(tmp_path, "mode = bogus\n")
    rc = main(
        ["sweep", "--corpus", corpus, "--samples", samples,
         "--out", str(tmp_path / "o"), "--sizes", "2", "--config", cfg]
    )
    assert rc == 1
    assert not (tmp_path / "o").exists()


def test_config_value_of_wrong_type_exits_1(corpus, occdict, tmp_path):
    cfg = _write_config(tmp_path, "epsilon = abc\n")
    rc = main(
        ["classify", "--corpus", corpus, "--occdict", occdict,
         "--out", str(tmp_path / "o"), "--config", cfg]
    )
    assert rc == 1


def test_abbreviated_flag_exits_1(corpus, occdict, tmp_path):
    rc = main(
        ["classify", "--corpus", corpus, "--occdict", occdict,
         "--out", str(tmp_path / "o"), "--eps", "0.05"]
    )
    assert rc == 1


def test_config_neighborhood_equals_flag(corpus, samples, tmp_path):
    cfg = _write_config(tmp_path, "neighborhood = 8-connected\n")
    base = ["collect", "--corpus", corpus, "--strategy", "soc"] + MASK_FLAGS
    out1, out2 = tmp_path / "from-config", tmp_path / "from-flag"
    assert main(base + ["--out", str(out1), "--config", cfg]) == 0
    assert main(base + ["--out", str(out2), "--neighborhood", "8-connected"]) == 0
    four = os.path.dirname(samples)  # the 4-connected default
    for suffix in (".csv", ".json", ".f64"):
        assert _dir_digest(str(out1), suffix) == _dir_digest(str(out2), suffix)
    assert _dir_digest(str(out1), ".f64") != _dir_digest(four, ".f64")


def test_sweep_row_equals_train_then_classify(corpus, samples, tmp_path, capsys):
    ksvd = ["--iterations", "5", "--seed", "2"]
    coding = ["--mode", "l1", "--features", "10x8"]
    rc = main(["train", "--samples", samples, "--out", str(tmp_path / "t"),
               "--atoms", "4"] + ksvd)
    assert rc == 0
    capsys.readouterr()
    rc = main(["classify", "--corpus", corpus, "--out", str(tmp_path / "c"),
               "--occdict", str(tmp_path / "t" / "occdict_band")] + coding)
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()[0]  # "accuracy c/n = x"
    correct, n_test = printed.split()[1].split("/")
    rc = main(["sweep", "--corpus", corpus, "--samples", samples,
               "--out", str(tmp_path / "s"), "--sizes", "4"] + ksvd + coding)
    assert rc == 0
    with open(tmp_path / "s" / "sweep.csv") as f:
        row = f.read().strip().splitlines()[1].split(",")
    assert row[0] == "4"
    assert float(row[1]) == int(correct) / int(n_test)


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_usage_error():
    assert main(["classify"]) == 1  # missing required flags
    assert main(["frobnicate", "--out", "x"]) == 1


def test_exit_code_bad_mode(corpus, tmp_path):
    rc = main(
        ["classify", "--corpus", corpus, "--out", str(tmp_path / "x"),
         "--mode", "bogus"]
    )
    assert rc == 1


def test_exit_code_data_error(tmp_path):
    rc = main(
        ["classify", "--corpus", str(tmp_path / "nope"),
         "--out", str(tmp_path / "o")]
    )
    assert rc == 2


def test_exit_code_bad_config(tmp_path, corpus):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not key value\n")
    rc = main(
        ["classify", "--corpus", corpus, "--out", str(tmp_path / "o"),
         "--config", str(cfg)]
    )
    assert rc == 1


def test_exit_code_unsupported_q_norm(corpus, occdict, tmp_path):
    rc = main(
        ["classify", "--corpus", corpus, "--occdict", occdict,
         "--out", str(tmp_path / "o"), "--q-norm", "3"]
    )
    assert rc == 2


def test_exit_code_non_finite_dictionary(corpus, occdict, tmp_path):
    bad = str(tmp_path / "occdict_nan")
    shutil.copy(occdict + ".json", bad + ".json")
    values = np.fromfile(occdict + ".f64", dtype="<f8")
    values[3] = np.nan
    values.tofile(bad + ".f64")
    rc = main(
        ["classify", "--corpus", corpus, "--occdict", bad,
         "--out", str(tmp_path / "o")]
    )
    assert rc == 2
