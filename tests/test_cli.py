"""End-to-end command-line pipeline on a tiny corpus: synth -> collect ->
train -> classify / roc / sweep, plus exit codes and determinism."""

import argparse
import csv
import dataclasses
import hashlib
import os
import re
import shutil

import numpy as np
import pytest

from occlucode import (
    Block,
    BlockedDictionary,
    ClassifierConfig,
    CorpusPlan,
    ImageVector,
    KsvdConfig,
    MaskEstimatorConfig,
    SolverConfig,
    SynthSpec,
    build_sample_set,
    collect_soc,
    collect_ssrc,
    estimate_mask,
    cli,
    generate_corpus,
    solvers,
)
from occlucode.cli import (
    build_parser,
    from_options,
    main,
    parse_hw,
    parse_shapes,
    read_config,
    with_config,
)
from occlucode.core import OCCLUSION, normalize_columns
from occlucode.imageio import load_dictionary, load_matrix, save_dictionary, write_pgm

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


def _stages(out_dir):
    """The stage names of a command's timings.txt, in order."""
    with open(os.path.join(out_dir, "timings.txt")) as f:
        return [line.split("\t")[0] for line in f]


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
    assert "timings.txt" not in names  # synth times no stage


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


SMALL_SYNTH = ["--classes", "2", "--samples-per-class", "2", "--subspace-dim", "1"]


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--shapes", "r:rectangle:0.2,r:lower-band:0.5",
          "--collect-classes", "1", "--collect-per-class", "1"], "r"),
        (["--shapes", "r:rectangle:0.2", "--unknown-shapes", "r:upper-band:0.3",
          "--collect-classes", "1", "--collect-per-class", "1"], "r"),
        (["--test-shapes", "zz"], "zz"),
    ],
    ids=["repeated-shape", "unknown-reuses-training-name", "undefined-test-shape"],
)
def test_synth_bad_shape_name_writes_nothing(tmp_path, capsys, flags, name):
    out = tmp_path / "corpus"
    assert main(["synth", "--out", str(out)] + SMALL_SYNTH + flags) == 2
    assert not out.exists()
    assert f"'{name}'" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--shapes", "--unknown-shapes"])
@pytest.mark.parametrize("entry", ["x:blob", "x:blob:0.3", "x:rectangle:1.5", "x:rectangle:abc"])
def test_synth_malformed_shape_entry_exits_1(tmp_path, capsys, option, entry):
    # a missing field, an unknown kind, a fraction outside (0, 1) or not a
    # number: each is a value the option rejects
    out = tmp_path / "corpus"
    assert main(["synth", "--out", str(out)] + SMALL_SYNTH + [option, entry]) == 1
    assert not out.exists()
    assert f"bad shape spec '{entry}'" in capsys.readouterr().err


@pytest.mark.parametrize("test_shapes, plan_shapes", [
    ("r,,u", ("r", "", "u")),  # the empty entry is a clean slot
    ("", ()),  # no entry: every test face clean
], ids=["clean-slot", "all-clean"])
def test_synth_test_shapes_keep_clean_slots(tmp_path, test_shapes, plan_shapes):
    shapes = "r:rectangle:0.2,u:upper-band:0.3"
    out = tmp_path / "cli"
    assert main(["synth", "--out", str(out)] + SMALL_SYNTH + [
        "--test-per-class", "3", "--shapes", shapes, "--test-shapes", test_shapes]) == 0
    spec = SynthSpec(classes=2, samples_per_class=2, subspace_dim=1, test_per_class=3,
                     occlusion_shapes=parse_shapes(shapes))
    generate_corpus(spec, CorpusPlan(test_shapes=plan_shapes), str(tmp_path / "module"))
    manifest = (out / "manifest.txt").read_text()
    assert manifest == (tmp_path / "module" / "manifest.txt").read_text()
    test_rows = [r.split("\t") for r in manifest.splitlines() if r.endswith("\ttest")]
    occlusions = [r[2] for r in test_rows[:3]]
    assert occlusions == (["r", "-", "u"] if plan_shapes else ["-", "-", "-"])


# ---------------------------------------------------------------------------
# collect / train


def test_collect_outputs(samples):
    assert os.path.exists(samples + ".json")
    assert os.path.exists(samples + ".f64")
    out_dir = os.path.dirname(samples)
    # every mask fit is certified: repeated pixel rows leave no LAD fit
    # without an optimal vertex
    with open(os.path.join(out_dir, "rejected.csv")) as f:
        assert f.read().splitlines() == ["image,reason,detail"]
    assert _stages(out_dir) == ["load", "collect", "write"]


def test_collect_samples_unit_norm(samples):
    from occlucode.imageio import load_matrix

    mat, meta = load_matrix(samples)
    assert meta["category"] == "band"
    assert np.allclose(np.linalg.norm(mat, axis=0), 1.0, atol=1e-9)


def test_collect_esrc_matches_module(corpus, tmp_path):
    from occlucode import collect_esrc
    from occlucode.cli import read_corpus
    from occlucode.imageio import load_matrix

    out = tmp_path / "esrc"
    rc = main(
        ["collect", "--corpus", corpus, "--out", str(out), "--strategy", "esrc"]
    )
    assert rc == 0
    mat, _ = load_matrix(str(out / "samples_band"))
    gallery, images, _ = read_corpus(corpus, ("collect",))
    row, u = images[0]
    expect = collect_esrc(u, gallery.subdict(row["face_label"]))
    assert np.allclose(mat[:, 0], expect.data, atol=1e-12)


def _collect_images(corpus):
    """The gallery and the (row, unit-norm image) pairs of role collect."""
    from occlucode.cli import read_corpus

    gallery, images, _ = read_corpus(corpus, ("collect",))
    return gallery, images


@pytest.mark.parametrize("labeled", [True, False])
def test_collect_ssrc_matches_module(corpus, tmp_path, labeled):
    # labeled, each image projects on its own class; unlabeled, on the
    # gallery's first block
    out = tmp_path / "ssrc"
    rc = main(["collect", "--corpus", corpus, "--out", str(out), "--strategy", "ssrc",
               "--labeled", str(labeled)])
    assert rc == 0
    mat, meta = load_matrix(str(out / "samples_band"))
    assert meta["strategy"] == "ssrc" and meta["labeled"] is labeled
    gallery, images = _collect_images(corpus)
    first = gallery.blocks[0].label
    patterns = [collect_ssrc(u, gallery.subdict(row["face_label"] if labeled else first))
                for row, u in images]
    expect = build_sample_set(patterns, "band", "ssrc", labeled)
    assert np.array_equal(mat, expect.samples)


def test_collect_tau_schedule_option(corpus, tmp_path, capsys):
    # the schedule reaches the mask estimator; a value that is no number
    # list is a usage error and a schedule that does not decrease a data error
    out = tmp_path / "taus"
    rc = main(["collect", "--corpus", corpus, "--out", str(out), "--strategy", "soc",
               "--tau-schedule", "0.005,0.004"] + MASK_FLAGS)
    assert rc == 0
    mat, _ = load_matrix(str(out / "samples_band"))
    gallery, images = _collect_images(corpus)
    cfg = MaskEstimatorConfig(beta=1.5, tau_schedule=(0.005, 0.004))
    patterns = [collect_soc(u, gallery, row["face_label"], cfg) for row, u in images]
    assert np.array_equal(mat, build_sample_set(patterns, "band", "soc", True).samples)
    base = ["collect", "--corpus", corpus, "--strategy", "soc", "--tau-schedule"]
    assert main(base + ["abc", "--out", str(tmp_path / "abc")]) == 1
    assert main(base + ["0.004,0.005", "--out", str(tmp_path / "up")]) == 2
    assert "strictly decreasing" in capsys.readouterr().err


def test_collect_rejects_a_zero_sample(corpus, tmp_path):
    # a collect image replaced by a gallery image of its class lies in the
    # span of the class's gallery block: its ssrc residual is zero
    bad = tmp_path / "corpus"
    shutil.copytree(corpus, bad)
    shutil.copy(bad / "gallery_class000_00.pgm", bad / "collect_band_class000_00.pgm")
    out = tmp_path / "ssrc"
    assert main(["collect", "--corpus", str(bad), "--out", str(out),
                 "--strategy", "ssrc"]) == 0
    with open(out / "rejected.csv") as f:
        rows = f.read().strip().splitlines()[1:]
    assert rows == ["collect_band_class000_00.pgm,ZeroPatternError,norm below 1e-6"]
    mat, _ = load_matrix(str(out / "samples_band"))
    assert mat.shape[1] == 3 * 3 - 1


def test_collect_debug_dumps_each_outer_iteration(corpus, samples, tmp_path):
    out = tmp_path / "debug"
    rc = main(["collect", "--corpus", corpus, "--out", str(out), "--strategy", "soc",
               "--debug"] + MASK_FLAGS)
    assert rc == 0
    # the samples equal those of the run without --debug
    for suffix in (".csv", ".json", ".f64"):
        assert _dir_digest(str(out), suffix) == _dir_digest(os.path.dirname(samples), suffix)
    gallery, images = _collect_images(corpus)
    cfg = MaskEstimatorConfig(beta=1.5)
    assert sorted(os.listdir(out / "debug")) == sorted(
        os.path.splitext(row["path"])[0] for row, _ in images)
    for row, u in images:
        est = estimate_mask(u, gallery.subdict(row["face_label"]), cfg)
        dumped = os.listdir(out / "debug" / os.path.splitext(row["path"])[0])
        assert sorted(dumped) == sorted(
            f"{kind}_{it:02d}.pgm" for kind in ("error", "support")
            for it in range(1, est.iterations + 1))


def test_collect_rejects_images_whose_lad_fit_fails(corpus, tmp_path, monkeypatch):
    monkeypatch.setattr(solvers, "_lad_vertex", lambda *args: None)
    monkeypatch.setattr(solvers, "_LAD_MAX_STEPS", 3)
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
    assert _stages(os.path.dirname(occdict)) == ["train"]


@pytest.mark.parametrize("iterations", [1, 2])
def test_train_atoms_equal_samples(samples, tmp_path, iterations):
    # atom_count = p: every atom is a (sign-fixed) sample, so the first
    # coding step already represents every sample exactly, error ~ 0
    from occlucode.imageio import load_matrix

    mat, _ = load_matrix(samples)
    out = tmp_path / "full"
    rc = main(
        ["train", "--samples", samples, "--out", str(out),
         "--atoms", str(mat.shape[1]), "--iterations", str(iterations),
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
    assert _stages(out) == ["classify"]


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


SOLVE_COUNTS = re.compile(r"coded (\d+) probes: (\d+) certified, (\d+) at the floor "
                         r"\(no code meets eps\), (\d+) uncertified, (\d+) Newton steps")


def _solve_counts(capsys):
    """(probes, certified, at the floor, uncertified, Newton steps) of each
    stderr line."""
    return [tuple(map(int, found)) for found in SOLVE_COUNTS.findall(capsys.readouterr().err)]


def test_classify_reports_solve_counts_on_stderr(corpus, occdict, samples, tmp_path, capsys,
                                                 monkeypatch):
    outcomes, run_classification = [], cli.run_classification

    def recorded(*args):  # the outcomes of each classification, in order
        records = run_classification(*args)
        outcomes.append([o for _, o in records])
        return records

    def steps():
        return sum(o.iterations for o in outcomes[-1])

    monkeypatch.setattr(cli, "run_classification", recorded)
    common = ["--corpus", corpus, "--occdict", occdict, "--mode", "structured"]
    capsys.readouterr()
    assert main(["classify", "--out", str(tmp_path / "a")] + common) == 0
    ((n, certified, floor, uncertified, total),) = _solve_counts(capsys)
    with open(tmp_path / "a" / "results.csv") as f:
        assert n == len(f.read().strip().splitlines()) - 1
    assert certified + floor + uncertified == n and certified > 0
    assert total == steps() > 0
    # a single Newton step certifies no solve; the floor does not depend on it
    assert main(["classify", "--out", str(tmp_path / "b"), "--max-iters", "1"] + common) == 0
    assert _solve_counts(capsys) == [(n, 0, floor, n - floor, n - floor)]
    assert steps() == n - floor
    # no code of the few gallery and occlusion atoms comes within 1e-6 of a
    # noisy probe
    assert main(["classify", "--out", str(tmp_path / "c"), "--epsilon", "1e-6"] + common) == 0
    assert _solve_counts(capsys) == [(n, 0, n, 0, 0)]
    # roc codes once; a sweep once per size
    assert main(["roc", "--out", str(tmp_path / "d")] + common) == 0
    assert _solve_counts(capsys) == [(n, certified, floor, uncertified, total)]
    assert main(["sweep", "--corpus", corpus, "--samples", samples, "--out",
                 str(tmp_path / "e"), "--sizes", "0,2", "--iterations", "5"]) == 0
    counts = _solve_counts(capsys)
    assert [c[0] for c in counts] == [n, n]
    assert [c[4] for c in counts] == [sum(o.iterations for o in run) for run in outcomes[-2:]]


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
    assert _stages(out) == ["classify"]


@pytest.mark.parametrize("flags, columns", [
    (["--occdict", "one"], ("tpr_occlusion",)),  # the test rows' shape is known
    # no occlusion dictionary knows it, so tpr_occlusion has no rows at all
    (["--mode", "src"], ("tpr_occlusion", "fpr_occlusion")),
], ids=["one-occdict", "src"])
def test_roc_without_an_occlusion_task(corpus, occdict, tmp_path, flags, columns):
    # with fewer than two occlusion blocks no probe has an occlusion RDI, so
    # the occlusion rows' column has no rate, and neither has a column with
    # no rows; the face columns are unchanged
    flags = [occdict if f == "one" else f for f in flags]
    argv = ["--corpus", corpus, "--features", "10x8"] + flags
    assert main(["roc", "--out", str(tmp_path / "roc")] + argv) == 0
    assert main(["classify", "--out", str(tmp_path / "cls")] + argv) == 0
    with open(tmp_path / "cls" / "results.csv") as f:
        rdi = np.array([float(r["rdi_face"]) for r in csv.DictReader(f)
                        if r["role"] == "test"])
    with open(tmp_path / "roc" / "roc.csv") as f:
        roc = list(csv.DictReader(f))
    assert len(roc) == 101
    for row in roc:
        assert [row[c] for c in columns] == ["nan"] * len(columns)
        assert float(row["tpr_face"]) == float(np.mean(rdi <= float(row["theta"])))


def test_roc_unknown_occlusion_rows(occdict, tmp_path):
    # test faces occluded by a shape that no occlusion dictionary knows; two
    # dictionaries, so each probe has an occlusion RDI
    corpus = str(tmp_path / "corpus")
    assert main(["synth", "--out", corpus] + CORPUS_FLAGS + [
        "--collect-classes", "0", "--unknown-shapes", "top:upper-band:0.3",
        "--test-shapes", "band,top"]) == 0
    rng = np.random.default_rng(0)
    first = load_dictionary(occdict)
    other = str(tmp_path / "occdict_noise")
    save_dictionary(other, BlockedDictionary(
        normalize_columns(rng.standard_normal(first.atoms.shape)),
        (Block("noise", OCCLUSION, 0, first.n),)))
    argv = ["--corpus", corpus, "--occdict", occdict, "--occdict", other,
            "--mode", "l1", "--features", "10x8"]
    assert main(["roc", "--out", str(tmp_path / "roc")] + argv) == 0
    assert main(["classify", "--out", str(tmp_path / "cls")] + argv) == 0
    with open(tmp_path / "cls" / "results.csv") as f:
        results = list(csv.DictReader(f))
    unknown = np.array([float(r["rdi_occlusion"]) for r in results
                        if r["true_occlusion"] == "top"])
    assert unknown.size and np.all(np.isfinite(unknown))
    with open(tmp_path / "roc" / "roc.csv") as f:
        roc = list(csv.DictReader(f))
    for row in roc:
        theta = float(row["theta"])
        assert float(row["fpr_occlusion"]) == float(np.mean(unknown <= theta))
    assert float(roc[0]["fpr_occlusion"]) == 0.0
    assert float(roc[-1]["fpr_occlusion"]) == 1.0


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
    assert _stages(out) == ["load", "sweep"]


def test_sweep_src_trains_no_dictionary(corpus, samples, tmp_path, monkeypatch, capsys):
    """src codes over the gallery and an identity block, so its sweep
    trains no K-SVD dictionary, codes its probes once and still writes one
    row and one stderr count line per size."""
    def refuse(*args):
        raise AssertionError("src mode trained a K-SVD dictionary")

    codings, classify_many = [], cli.classify_many

    def counted(*args):
        codings.append(args)
        return classify_many(*args)

    monkeypatch.setattr(cli, "ksvd_train_with_trace", refuse)
    monkeypatch.setattr(cli, "classify_many", counted)
    out = tmp_path / "sweep"
    capsys.readouterr()
    rc = main(["sweep", "--corpus", corpus, "--samples", samples, "--out", str(out),
               "--sizes", "0,2", "--mode", "src"])
    assert rc == 0
    assert len(codings) == 1
    counts = _solve_counts(capsys)
    assert len(counts) == 2 and counts[0] == counts[1]
    with open(out / "sweep.csv") as f:
        lines = f.read().strip().splitlines()
    assert [int(l.split(",")[0]) for l in lines[1:]] == [0, 2]
    assert lines[1].split(",")[1] == lines[2].split(",")[1]


def test_src_mode_reads_no_occdict(corpus, tmp_path):
    """classify and roc in src mode code over the gallery and an identity
    block, so an --occdict they cannot read changes nothing."""
    argv = ["--corpus", corpus, "--mode", "src", "--features", "10x8"]
    missing = ["--occdict", str(tmp_path / "no_such_occdict")]
    for command, name in (("classify", "results.csv"), ("roc", "roc.csv")):
        outputs = []
        for extra in ([], missing):
            out = tmp_path / f"{command}{len(extra)}"
            assert main([command, "--out", str(out)] + argv + extra) == 0
            outputs.append((out / name).read_bytes())
        assert outputs[0] == outputs[1]


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


# the config dataclasses whose fields each command's options fill, and the
# flags each command requires
CONFIGS = {
    "synth": ((SynthSpec, CorpusPlan), []),
    "collect": ((MaskEstimatorConfig,), ["--corpus", "c"]),
    "train": ((KsvdConfig,), ["--samples", "s"]),
    "classify": ((ClassifierConfig, SolverConfig), ["--corpus", "c"]),
    "roc": ((ClassifierConfig, SolverConfig), ["--corpus", "c"]),
    "sweep": ((ClassifierConfig, SolverConfig, KsvdConfig),
              ["--corpus", "c", "--samples", "s"]),
}
# the options that no config dataclass holds
NOT_CONFIG = {"help", "config", "out", "corpus", "samples", "mode", "features",
              "strategy", "labeled", "debug", "occdict", "sizes"}


def test_config_fields_have_no_parser_default():
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(CONFIGS)
    for command, p in commands.choices.items():
        fields = {f.name for cls in CONFIGS[command][0] for f in dataclasses.fields(cls)}
        for action in p._actions:
            if action.dest in fields:
                assert action.default is argparse.SUPPRESS, (command, action.dest)
            else:
                assert action.dest in NOT_CONFIG, (command, action.dest)


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_required_flags_alone_give_the_dataclass_defaults(command):
    classes, required = CONFIGS[command]
    args = build_parser().parse_args([command, "--out", "o"] + required)
    for cls in classes:
        assert from_options(cls, args) == cls()


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
    # neither the file nor a flag sets it: the dataclass default applies
    assert from_options(ClassifierConfig, args).theta_face == 0.9


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


@pytest.mark.parametrize("value", ["false", "true"])
def test_debug_value_on_the_command_line(corpus, tmp_path, value):
    # --debug false is no flag; --debug=true is the bare flag and the config key
    base = ["classify", "--corpus", corpus, "--mode", "l1", "--features", "10x8"]
    outs = {
        "value": base + ["--debug", value],
        "joined": base + [f"--debug={value}"],
        "config": base + ["--config", _write_config(tmp_path, f"debug = {value}\n")],
        "flag": base + (["--debug"] if value == "true" else []),
    }
    for name, argv in outs.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
    digests = {_dir_digest(str(tmp_path / name)) for name in outs}
    assert len(digests) == 1
    with open(tmp_path / "flag" / "results.csv") as f:
        assert ("face_residuals" in f.readline()) == (value == "true")


# each option that a command does not read, and the value it is given
UNREAD = [
    ("synth", "debug", None),
    ("collect", "seed", "3"),
    ("train", "debug", None),
    ("classify", "seed", "3"),
    ("roc", "seed", "3"),
    ("roc", "debug", None),
    ("roc", "theta-face", "0.5"),
    ("roc", "theta-occlusion", "0.5"),
    ("sweep", "debug", None),
    ("sweep", "occdict", "OCCDICT"),
    ("sweep", "theta-occlusion", "0.5"),
]


@pytest.mark.parametrize("command, option, value", UNREAD)
def test_option_the_command_does_not_read_exits_1(
        corpus, samples, occdict, tmp_path, command, option, value):
    argv = [command] + {
        "synth": CORPUS_FLAGS,
        "collect": ["--corpus", corpus] + MASK_FLAGS,
        "train": ["--samples", samples, "--atoms", "4", "--iterations", "1"],
        "classify": ["--corpus", corpus, "--occdict", occdict],
        "roc": ["--corpus", corpus, "--occdict", occdict],
        "sweep": ["--corpus", corpus, "--samples", samples, "--sizes", "2"],
    }[command]
    value = occdict if value == "OCCDICT" else value
    flag = [f"--{option}"] + ([value] if value else [])
    cfg = _write_config(tmp_path, f"{option} = {value or 'true'}\n")
    assert main(argv + flag + ["--out", str(tmp_path / "flag")]) == 1
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "config")]) == 1
    assert not (tmp_path / "flag").exists() and not (tmp_path / "config").exists()


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


def test_exit_code_pgm_without_pixels(corpus, tmp_path):
    bad = tmp_path / "corpus"
    shutil.copytree(corpus, bad)
    (bad / "gallery_class000_00.pgm").write_bytes(b"P5\n0 2\n255\n")
    rc = main(
        ["classify", "--corpus", str(bad), "--out", str(tmp_path / "o"),
         "--mode", "src"]
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


BLOCK_WITHOUT_STOP = '{"m": 2, "n": 3, "blocks": [{"label": "o", "kind": "occlusion", "start": 0}]}'


@pytest.mark.parametrize("command, flags, metadata", [
    ("train", ["--samples", "{bad}"], '{"n": 3}'),
    ("train", ["--samples", "{bad}"], '{"m": 2, "n": 3.0}'),
    ("train", ["--samples", "{bad}"], '{"m": "2", "n": 3}'),
    ("train", ["--samples", "{bad}"], "[2, 3]"),
    ("classify", ["--corpus", "{corpus}", "--occdict", "{bad}"], BLOCK_WITHOUT_STOP),
    ("collect", ["--corpus", "{corpus}", "--max-outer-iters", "0"], None),
    ("collect", ["--corpus", "{corpus}", "--min-support-fraction", "1.5"], None),
    ("collect", ["--corpus", "{resized}"], None),
    ("classify", ["--corpus", "{resized}"], None),
    ("synth", ["--invalid-classes", "-1"], None),
    ("synth", ["--test-per-class", "-1"], None),
    ("synth", ["--collect-per-class", "-2"], None),
    ("synth", ["--invalid-per-class", "-1"], None),
], ids=["no-m", "float-n", "string-m", "list-metadata", "block-without-stop",
        "zero-outer-iters", "support-fraction-above-1", "collect-resized-gallery",
        "classify-resized-gallery", "negative-invalid-classes", "negative-test-per-class",
        "negative-collect-per-class", "negative-invalid-per-class"])
def test_malformed_input_exits_with_documented_code(corpus, tmp_path, capsys, command,
                                                    flags, metadata):
    """Each malformed input exits 2 as a data error rather than escaping
    main; a gallery image of another resolution is named on stderr, and a
    synth spec with a negative count writes nothing."""
    bad, resized = str(tmp_path / "bad"), tmp_path / "corpus"
    if metadata is not None:
        (tmp_path / "bad.json").write_text(metadata)
        np.zeros(6).tofile(bad + ".f64")
    if "{resized}" in flags:
        shutil.copytree(corpus, resized)
        write_pgm(str(resized / "gallery_class002_01.pgm"),
                  ImageVector(np.full(12, 0.5), (4, 3)))
    argv = [command, "--out", str(tmp_path / "o")]
    argv += [f.format(bad=bad, corpus=corpus, resized=resized) for f in flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    if "{resized}" in flags:
        assert str(resized / "gallery_class002_01.pgm") in err
    if command == "synth":
        assert not (tmp_path / "o").exists()
