"""Command-line front end.

Commands: synth | collect | train | classify | roc | sweep
Common flags: --config PATH, --seed N, --out DIR, --debug

Each command's parser is the one place that knows its options, their
types, choices and defaults. A configuration file holds ``key = value``
lines with ``#`` comments; each key must name one of the command's options
exactly (``q-norm`` for ``--q-norm``). The command's parser reads the file's
values as ``--key=value`` placed ahead of the explicit flags, so explicit
flags win and a repeatable option (``occdict``, ``samples``) adds every
value the file gives it to those on the command line. A flag option
(``debug``) takes ``true`` or ``false`` in the file. Abbreviated flags are
not accepted. Exit codes: 0 success, 1 usage error (including an unknown
config key or a value its option rejects), 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
import time

import numpy as np

from .classify import (
    L1,
    STRUCTURED,
    ClassifierConfig,
    build_compound,
    classify,
    classify_src_baseline,
)
from .core import (
    FACE,
    Block,
    BlockedDictionary,
    ImageVector,
    downsample_dictionary,
    downsample_vector,
    normalize_vector,
    vectorize,
)
from .dictlearn import (
    KsvdConfig,
    OcclusionSampleSet,
    build_sample_set,
    collect_esrc,
    collect_soc,
    collect_ssrc,
    ksvd_train_with_trace,
)
from .errors import DegenerateError, FormatError, OcclucodeError, ZeroPatternError
from .imageio import (
    load_dictionary,
    load_matrix,
    read_manifest,
    read_pgm,
    save_dictionary,
    save_matrix,
)
from .maskest import MaskEstimatorConfig
from .solvers import SolverConfig
from .synth import CorpusPlan, OcclusionShape, SynthSpec, generate_corpus

SRC_MODE = "src"
FLAGS = ("debug",)  # options that take no value on the command line


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# config plumbing


def read_config(path: str) -> list[tuple[str, str]]:
    """The file's (key, value) pairs in file order, repeated keys included."""
    values = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            values.append((key.strip(), val.strip()))
    return values


def with_config(argv: list[str], command: str, path: str) -> list[str]:
    """argv with the config file's values inserted after the command name
    as ``--key=value``, ahead of the explicit flags, which therefore win.
    A flag option takes ``true``, which inserts the bare flag, or ``false``,
    which inserts nothing."""
    values = []
    for key, val in read_config(path):
        if key not in FLAGS:
            values.append(f"--{key}={val}")
        elif val.lower() == "true":
            values.append(f"--{key}")
        elif val.lower() != "false":
            raise UsageError(f"{path}: {key} takes true or false, not {val!r}")
    i = argv.index(command) + 1
    return argv[:i] + values + argv[i:]


def from_options(cls, args, **given):
    """A config dataclass built from the options named like its fields,
    plus the ``given`` fields."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in names}, **given)


def parse_shapes(text: str) -> tuple:
    """"name:kind:fraction,..." -> tuple of OcclusionShape."""
    shapes = []
    if not text:
        return ()
    for part in text.split(","):
        fields = part.strip().split(":")
        if len(fields) != 3:
            raise UsageError(f"bad shape spec {part!r} (want name:kind:fraction)")
        shapes.append(OcclusionShape(fields[0], fields[1], float(fields[2])))
    return tuple(shapes)


def parse_taus(text: str) -> tuple:
    return tuple(float(t) for t in text.split(","))


def parse_hw(text: str) -> tuple[int, int]:
    h, w = text.lower().split("x")
    return int(h), int(w)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


class StageTimer:
    """Per-stage wall times, written to a text file so the CSV outputs stay
    byte-reproducible across runs."""

    def __init__(self):
        self.stages = []

    def time(self, name):
        timer = self

        class _Ctx:
            def __enter__(self_inner):
                self_inner.t0 = time.perf_counter()

            def __exit__(self_inner, *exc):
                timer.stages.append((name, time.perf_counter() - self_inner.t0))

        return _Ctx()

    def write(self, out_dir):
        with open(os.path.join(out_dir, "timings.txt"), "w") as f:
            for name, seconds in self.stages:
                f.write(f"{name}\t{seconds:.3f}\n")


# ---------------------------------------------------------------------------
# loading at the boundary


def load_gallery(corpus_dir: str):
    """Face dictionary (native resolution) from role=gallery images."""
    rows = read_manifest(corpus_dir)
    by_label: dict[str, list] = {}
    shape = None
    for row in rows:
        if row["role"] != "gallery":
            continue
        g = read_pgm(os.path.join(corpus_dir, row["path"]))
        shape = (g.height, g.width)
        by_label.setdefault(row["face_label"], []).append(
            vectorize(g, normalize=True).data
        )
    if not by_label:
        raise FormatError(f"{corpus_dir}: manifest has no gallery rows")
    cols, blocks, pos = [], [], 0
    for label, vecs in by_label.items():
        cols.extend(vecs)
        blocks.append(Block(label, FACE, pos, pos + len(vecs)))
        pos += len(vecs)
    return BlockedDictionary(np.stack(cols, axis=1), tuple(blocks)), shape, rows


def load_image_vector(corpus_dir, row, shape) -> ImageVector:
    g = read_pgm(os.path.join(corpus_dir, row["path"]))
    if (g.height, g.width) != shape:
        raise FormatError(f"{row['path']}: resolution differs from gallery")
    return vectorize(g)


def at_features(dictionary: BlockedDictionary, shape, features) -> BlockedDictionary:
    """A dictionary whose atoms lie on the shape grid, downsampled to the
    features resolution (None keeps the grid)."""
    if features in (None, shape):
        return dictionary
    return downsample_dictionary(dictionary, shape, *features)


def load_probes(corpus: str, features):
    """The gallery and the unit-norm test and invalid images of a corpus at
    the features resolution; returns (gallery, [(row, vector)], shape) with
    the images' own shape."""
    gallery, shape, rows = load_gallery(corpus)
    probes = [
        (row, load_image_vector(corpus, row, shape))
        for row in rows
        if row["role"] in ("test", "invalid")
    ]
    if features not in (None, shape):
        probes = [(row, downsample_vector(u, *features)) for row, u in probes]
    probes = [(row, normalize_vector(u)) for row, u in probes]
    return at_features(gallery, shape, features), probes, shape


def load_sample_sets(prefixes) -> list[OcclusionSampleSet]:
    sample_sets = []
    for prefix in prefixes:
        mat, meta = load_matrix(prefix)
        sample_sets.append(
            OcclusionSampleSet(
                mat,
                meta.get("category", "occlusion"),
                meta.get("strategy", "soc"),
                bool(meta.get("labeled", True)),
            )
        )
    return sample_sets


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    spec = from_options(SynthSpec, args)
    plan = from_options(CorpusPlan, args)
    print(generate_corpus(spec, plan, args.out))
    return 0


def cmd_collect(args) -> int:
    corpus = args.corpus
    timer = StageTimer()
    os.makedirs(args.out, exist_ok=True)

    with timer.time("load"):
        gallery, shape, rows = load_gallery(corpus)
    mask_cfg = from_options(MaskEstimatorConfig, args)
    rejected = []
    by_category: dict[str, list] = {}
    with timer.time("collect"):
        for row in rows:
            if row["role"] != "collect":
                continue
            u = normalize_vector(load_image_vector(corpus, row, shape))
            label = row["face_label"] if args.labeled else None
            category = row["occlusion_label"]
            try:
                if args.strategy == "soc":
                    debug_dir = (
                        os.path.join(args.out, "debug", os.path.splitext(row["path"])[0])
                        if args.debug
                        else None
                    )
                    pattern = collect_soc(u, gallery, label, mask_cfg, debug_dir)
                elif args.strategy == "ssrc":
                    sub = (
                        gallery.subdict(label)
                        if label is not None
                        else gallery.subdict(gallery.blocks[0].label)
                    )
                    pattern = collect_ssrc(u, sub)
                else:
                    sub = gallery.subdict(label) if label is not None else gallery
                    pattern = collect_esrc(u, sub)
            except (DegenerateError, ZeroPatternError) as exc:
                rejected.append([row["path"], type(exc).__name__, str(exc)])
                continue
            if np.linalg.norm(pattern.data) < 1e-6:
                rejected.append([row["path"], "NearZeroSample", "norm below 1e-6"])
                continue
            by_category.setdefault(category, []).append(pattern)

    with timer.time("write"):
        for category, patterns in by_category.items():
            sample_set = build_sample_set(patterns, category, args.strategy, args.labeled)
            save_matrix(
                os.path.join(args.out, f"samples_{category}"),
                sample_set.samples,
                extra={
                    "category": category,
                    "strategy": args.strategy,
                    "labeled": args.labeled,
                    "height": shape[0],
                    "width": shape[1],
                },
            )
        write_csv(
            os.path.join(args.out, "rejected.csv"),
            ["image", "reason", "detail"],
            rejected,
        )
    timer.write(args.out)
    for category in by_category:
        print(os.path.join(args.out, f"samples_{category}"))
    return 0


def cmd_train(args) -> int:
    cfg = from_options(KsvdConfig, args)
    timer = StageTimer()
    os.makedirs(args.out, exist_ok=True)
    with timer.time("train"):
        for sample_set in load_sample_sets(args.samples):
            dictionary, trace = ksvd_train_with_trace(sample_set, cfg)
            out_prefix = os.path.join(args.out, f"occdict_{sample_set.category}")
            save_dictionary(out_prefix, dictionary)
            write_csv(
                os.path.join(args.out, f"trace_{sample_set.category}.csv"),
                ["iteration", "frobenius_error"],
                [[i + 1, float(e)] for i, e in enumerate(trace)],
            )
            print(out_prefix)
    timer.write(args.out)
    return 0


def run_classification(gallery, occ_dicts, probes, args):
    """Classify each (row, vector) probe over the gallery and the occlusion
    dictionaries, all at the probes' resolution; returns (row, outcome)
    pairs."""
    cfg = from_options(
        ClassifierConfig,
        args,
        sparsity_mode=STRUCTURED if args.mode == STRUCTURED else L1,
        solver=from_options(SolverConfig, args),
        baseline_identity_occlusion=(args.mode == SRC_MODE),
    )
    if args.mode == SRC_MODE:
        return [(row, classify_src_baseline(u, gallery, cfg)) for row, u in probes]
    compound = build_compound([gallery], occ_dicts)
    return [(row, classify(u, compound, cfg)) for row, u in probes]


def classify_corpus(args):
    """Classify the corpus over its gallery and the --occdict dictionaries;
    returns (records, occlusion categories)."""
    gallery, probes, shape = load_probes(args.corpus, args.features)
    occ_dicts = [at_features(load_dictionary(p), shape, args.features) for p in args.occdict]
    records = run_classification(gallery, occ_dicts, probes, args)
    return records, [b.label for d in occ_dicts for b in d.blocks]


def count_correct(records) -> tuple[int, int]:
    """(test images given their true face label, test images)."""
    test = [(r, o) for r, o in records if r["role"] == "test"]
    return sum(o.face_label == r["face_label"] for r, o in test), len(test)


def _result_rows(records, debug):
    header = [
        "image",
        "role",
        "true_face",
        "true_occlusion",
        "pred_face",
        "pred_occlusion",
        "rdi_face",
        "rdi_occlusion",
    ]
    if debug:
        header += ["face_residuals", "occlusion_residuals"]
    rows = []
    for row, outcome in records:
        rec = [
            row["path"],
            row["role"],
            row["face_label"],
            row["occlusion_label"],
            outcome.face_label,
            outcome.occlusion_label,
            float(outcome.rdi_face),
            float(outcome.rdi_occlusion),
        ]
        if debug:
            rec.append(";".join(f"{k}={v!r}" for k, v in outcome.face_residuals.items()))
            rec.append(
                ";".join(f"{k}={v!r}" for k, v in outcome.occlusion_residuals.items())
            )
        rows.append(rec)
    return header, rows


def cmd_classify(args) -> int:
    timer = StageTimer()
    os.makedirs(args.out, exist_ok=True)
    with timer.time("classify"):
        records, _ = classify_corpus(args)
    header, rows = _result_rows(records, args.debug)
    out_path = os.path.join(args.out, "results.csv")
    write_csv(out_path, header, rows)
    timer.write(args.out)
    correct, n_test = count_correct(records)
    if n_test:
        print(f"accuracy {correct}/{n_test} = {correct / n_test:.4f}")
    print(out_path)
    return 0


def cmd_roc(args) -> int:
    timer = StageTimer()
    os.makedirs(args.out, exist_ok=True)
    with timer.time("classify"):
        records, categories = classify_corpus(args)

    face_valid, face_invalid, occ_valid, occ_invalid = [], [], [], []
    for row, outcome in records:
        rdi_f = outcome.rdi_face
        (face_valid if row["role"] == "test" else face_invalid).append(rdi_f)
        if row["occlusion_label"] != "-":
            rdi_o = outcome.rdi_occlusion
            if row["occlusion_label"] in categories:
                occ_valid.append(rdi_o)
            else:
                occ_invalid.append(rdi_o)

    def rate(scores, theta):
        # accepted when RDI <= theta; NaN (no classification task) accepts
        if not scores:
            return 0.0
        arr = np.asarray(scores)
        ok = np.isnan(arr) | (arr <= theta)
        return float(ok.mean())

    rows = []
    for i in range(101):
        theta = i / 100.0
        rows.append(
            [
                theta,
                rate(face_valid, theta),
                rate(face_invalid, theta),
                rate(occ_valid, theta),
                rate(occ_invalid, theta),
            ]
        )
    out_path = os.path.join(args.out, "roc.csv")
    write_csv(
        out_path,
        ["theta", "tpr_face", "fpr_face", "tpr_occlusion", "fpr_occlusion"],
        rows,
    )
    timer.write(args.out)
    print(out_path)
    return 0


def cmd_sweep(args) -> int:
    timer = StageTimer()
    os.makedirs(args.out, exist_ok=True)
    with timer.time("load"):
        sample_sets = load_sample_sets(args.samples)
        gallery, probes, shape = load_probes(args.corpus, args.features)

    rows = []
    with timer.time("sweep"):
        for size in args.sizes:
            occ_dicts = []
            for s in sample_sets if size > 0 else []:
                cfg = from_options(KsvdConfig, args, atom_count=min(size, s.p))
                dictionary, _ = ksvd_train_with_trace(s, cfg)
                occ_dicts.append(at_features(dictionary, shape, args.features))
            records = run_classification(gallery, occ_dicts, probes, args)
            correct, n_test = count_correct(records)
            rows.append([size, correct / n_test if n_test else 0.0])
    out_path = os.path.join(args.out, "sweep.csv")
    write_csv(out_path, ["occlusion_atoms", "accuracy"], rows)
    timer.write(args.out)
    print(out_path)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _flag(text: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, not {text!r}")


def _names(text: str) -> tuple[str, ...]:
    return tuple(x for x in text.split(",") if x)


def _sizes(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    """One parser per command. Option names are the config keys; options
    named like the fields of a config dataclass fill those fields."""
    parser = _Parser(prog="occlucode", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output directory")
        for name in FLAGS:
            p.add_argument(f"--{name}", action="store_true")
        return p

    def ksvd(p):
        p.add_argument("--sparsity-budget", type=int, default=4)
        p.add_argument("--iterations", type=int, default=20)

    p = command("synth", "generate a synthetic corpus")
    for flag, typ, default in [
        ("--classes", int, 20), ("--samples-per-class", int, 5),
        ("--test-per-class", int, None), ("--height", int, 30),
        ("--width", int, 24), ("--subspace-dim", int, 3),
        ("--noise-sigma", float, 0.0), ("--collect-classes", int, 0),
        ("--collect-per-class", int, 3), ("--invalid-classes", int, 0),
        ("--invalid-per-class", int, 2),
    ]:
        p.add_argument(flag, type=typ, default=default)
    p.add_argument("--shapes", dest="occlusion_shapes", type=parse_shapes,
                   default=(), help="name:kind:fraction[,...]")
    p.add_argument("--unknown-shapes", type=parse_shapes, default=())
    p.add_argument("--test-shapes", type=_names, default=())

    p = command("collect", "collect occlusion samples from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--strategy", choices=["soc", "ssrc", "esrc"], default="soc")
    p.add_argument("--labeled", type=_flag, default=True)
    p.add_argument("--h", type=int, default=20)
    p.add_argument("--beta", type=float, default=20.0)
    p.add_argument("--tau-schedule", type=parse_taus,
                   default="0.005,0.0045,0.004,0.0035,0.003,0.0025,0.002")
    p.add_argument("--max-outer-iters", type=int, default=20)
    p.add_argument("--neighborhood", choices=["4-connected", "8-connected"],
                   default="4-connected")
    p.add_argument("--min-support-fraction", type=float, default=0.05)

    p = command("train", "train an occlusion dictionary with K-SVD")
    p.add_argument("--samples", action="append", required=True,
                   help="sample matrix prefix (repeatable)")
    p.add_argument("--atoms", dest="atom_count", type=int, default=30)
    ksvd(p)

    def classifying(name, help):
        p = command(name, help)
        p.add_argument("--corpus", required=True)
        p.add_argument("--occdict", action="append", default=[],
                       help="occlusion dictionary prefix (repeatable)")
        p.add_argument("--mode", choices=[L1, STRUCTURED, SRC_MODE], default=STRUCTURED)
        p.add_argument("--features", type=parse_hw, default=None,
                       help="downsampled feature resolution, e.g. 12x10")
        p.add_argument("--epsilon", type=float, default=0.05)
        p.add_argument("--lam", type=float, default=None)
        p.add_argument("--q-norm", type=float, default=2.0)
        p.add_argument("--max-iters", type=int, default=2000)
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--theta-face", type=float, default=0.9)
        p.add_argument("--theta-occlusion", type=float, default=0.9)
        return p

    classifying("classify", "classify test images")
    classifying("roc", "rejection-threshold sweep")
    p = classifying("sweep", "accuracy vs occlusion dictionary size")
    p.add_argument("--samples", action="append", required=True)
    p.add_argument("--sizes", type=_sizes, default="2,3,5,7,10,20,30,40,50,60")
    ksvd(p)

    return parser


COMMANDS = {
    "synth": cmd_synth,
    "collect": cmd_collect,
    "train": cmd_train,
    "classify": cmd_classify,
    "roc": cmd_roc,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(with_config(argv, args.command, args.config))
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OcclucodeError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
