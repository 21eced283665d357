"""Command-line front end.

Commands: synth | collect | train | classify | roc | sweep
Every command takes --config PATH and --out DIR; --seed N is taken by the
seeded ones (synth, train, sweep) and --debug by collect and classify.

Each command's parser knows its options, their types and choices, and a
command has only the options it reads. Defaults live in the config
dataclasses alone: an option named like a field has none of its own, so
left out, the field keeps its dataclass default.
A configuration file holds ``key = value`` lines with ``#`` comments; each
key must name one of the command's options exactly (``q-norm`` for
``--q-norm``). The command's parser reads the file's values as
``--key=value`` placed ahead of the explicit flags, so explicit flags win
and a repeatable option (``occdict``, ``samples``) adds every value the
file gives it to those on the command line. A boolean option (``debug``,
``labeled``) takes true/false/yes/no/1/0, in the file or on the command
line, and alone as a flag means true. Abbreviated flags are not accepted.
Exit codes: 0 success, 1 usage error (including an unknown config key, an
option the command does not take, or a value its option rejects), 2 data
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
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
    classify_many,
    with_identity_block,
)
from .core import (
    FACE,
    Block,
    BlockedDictionary,
    downsample_dictionary,
    downsample_vector,
    normalize_vector,
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
from .errors import BadSpecError, DegenerateError, FormatError, OcclucodeError, ZeroPatternError
from .imageio import (
    load_dictionary,
    load_matrix,
    read_manifest,
    read_pgm,
    save_dictionary,
    save_matrix,
)
from .maskest import MaskEstimatorConfig
from .solvers import FLOOR, SolverConfig
from .synth import CorpusPlan, OcclusionShape, SynthSpec, generate_corpus

SRC_MODE = "src"


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
    as ``--key=value``, ahead of the explicit flags, which therefore win."""
    values = [f"--{key}={val}" for key, val in read_config(path)]
    i = argv.index(command) + 1
    return argv[:i] + values + argv[i:]


def from_options(cls, args, **given):
    """A config dataclass built from the options named like its fields,
    plus the ``given`` fields."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in names}, **given)


def parse_shapes(text: str) -> tuple:
    """"name:kind:fraction,..." -> tuple of OcclusionShape; any malformed
    entry is a value the option rejects."""
    shapes = []
    if not text:
        return ()
    for part in text.split(","):
        fields = part.strip().split(":")
        if len(fields) != 3:
            raise argparse.ArgumentTypeError(
                f"bad shape spec {part!r} (want name:kind:fraction)")
        try:
            shapes.append(OcclusionShape(fields[0], fields[1], float(fields[2])))
        except (BadSpecError, ValueError) as exc:
            raise argparse.ArgumentTypeError(f"bad shape spec {part!r}: {exc}") from None
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

    @contextlib.contextmanager
    def time(self, name):
        t0 = time.perf_counter()
        yield
        self.stages.append((name, time.perf_counter() - t0))

    def write(self, out_dir):
        with open(os.path.join(out_dir, "timings.txt"), "w") as f:
            for name, seconds in self.stages:
                f.write(f"{name}\t{seconds:.3f}\n")


# ---------------------------------------------------------------------------
# loading at the boundary


def at_features(dictionary: BlockedDictionary, shape, features) -> BlockedDictionary:
    """A dictionary whose atoms lie on the shape grid, downsampled to the
    features resolution (None keeps the grid)."""
    if features in (None, shape):
        return dictionary
    return downsample_dictionary(dictionary, shape, *features)


def read_corpus(corpus_dir: str, roles, features=None):
    """The gallery (one face block per label, unit-norm atoms) and the
    unit-norm images of the given roles of a corpus, both at the features
    resolution (None keeps the images' own); returns (gallery,
    [(row, image)], shape) with the images' own shape, which every image,
    gallery included, must share."""
    rows = read_manifest(corpus_dir)
    gallery_rows = [row for row in rows if row["role"] == "gallery"]
    if not gallery_rows:
        raise FormatError(f"{corpus_dir}: manifest has no gallery rows")
    role_rows = [row for row in rows if row["role"] in roles]
    paths = [os.path.join(corpus_dir, row["path"]) for row in gallery_rows + role_rows]
    images = [read_pgm(path) for path in paths]
    shape = images[0].shape
    for path, image in zip(paths, images):
        if image.shape != shape:
            raise FormatError(f"{path}: shape {image.shape} differs from the gallery's {shape}")
    by_label: dict[str, list] = {}
    for row, g in zip(gallery_rows, images):
        by_label.setdefault(row["face_label"], []).append(normalize_vector(g).data)
    cols, blocks, pos = [], [], 0
    for label, vecs in by_label.items():
        cols.extend(vecs)
        blocks.append(Block(label, FACE, pos, pos + len(vecs)))
        pos += len(vecs)
    gallery = BlockedDictionary(np.stack(cols, axis=1), tuple(blocks))
    role_images = images[len(gallery_rows):]
    if features not in (None, shape):
        role_images = [downsample_vector(u, *features) for u in role_images]
    pairs = [(row, normalize_vector(u)) for row, u in zip(role_rows, role_images)]
    return at_features(gallery, shape, features), pairs, shape


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


def cmd_synth(args, timer) -> int:
    spec = from_options(SynthSpec, args)
    plan = from_options(CorpusPlan, args)
    print(generate_corpus(spec, plan, args.out))
    return 0


def cmd_collect(args, timer) -> int:
    os.makedirs(args.out, exist_ok=True)

    with timer.time("load"):
        gallery, images, shape = read_corpus(args.corpus, ("collect",))
    mask_cfg = from_options(MaskEstimatorConfig, args)
    rejected = []
    by_category: dict[str, list] = {}
    with timer.time("collect"):
        for row, u in images:
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
    for category in by_category:
        print(os.path.join(args.out, f"samples_{category}"))
    return 0


def cmd_train(args, timer) -> int:
    cfg = from_options(KsvdConfig, args)
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
    return 0


def run_classification(gallery, occ_dicts, probes, args):
    """Classify each (row, vector) probe over the gallery and the occlusion
    dictionaries, all at the probes' resolution and all coded together;
    returns (row, outcome) pairs. One stderr line counts the solves that
    were certified, that hit the floor and that stopped uncertified."""
    cfg = from_options(
        ClassifierConfig,
        args,
        sparsity_mode=STRUCTURED if args.mode == STRUCTURED else L1,
        solver=from_options(SolverConfig, args),
    )
    if args.mode == SRC_MODE:
        R = with_identity_block(gallery)
    else:
        R = build_compound([gallery], occ_dicts)
    outcomes = classify_many([u for _, u in probes], R, cfg)
    certified = sum(o.converged for o in outcomes)
    floor = sum(o.status == FLOOR for o in outcomes)
    print(f"coded {len(outcomes)} probes: {certified} certified, {floor} at the floor "
          f"(no code meets eps), {len(outcomes) - certified - floor} uncertified",
          file=sys.stderr)
    return [(row, outcome) for (row, _), outcome in zip(probes, outcomes)]


def classify_corpus(args):
    """Classify the corpus over its gallery and the --occdict dictionaries;
    returns (records, occlusion categories)."""
    gallery, probes, shape = read_corpus(args.corpus, ("test", "invalid"), args.features)
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


def cmd_classify(args, timer) -> int:
    os.makedirs(args.out, exist_ok=True)
    with timer.time("classify"):
        records, _ = classify_corpus(args)
    header, rows = _result_rows(records, args.debug)
    out_path = os.path.join(args.out, "results.csv")
    write_csv(out_path, header, rows)
    correct, n_test = count_correct(records)
    if n_test:
        print(f"accuracy {correct}/{n_test} = {correct / n_test:.4f}")
    print(out_path)
    return 0


def cmd_roc(args, timer) -> int:
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

    # accepted when RDI <= theta; NaN (no classification task) accepts,
    # and a column with no task at all, or with no rows, has no rate
    thetas = np.arange(101) / 100.0
    columns = [thetas]
    for scores in (face_valid, face_invalid, occ_valid, occ_invalid):
        arr = np.asarray(scores, dtype=float)[:, None]
        ok = np.isnan(arr) | (arr <= thetas)
        columns.append(np.full_like(thetas, np.nan) if np.isnan(arr).all() else ok.mean(axis=0))
    rows = np.column_stack(columns).tolist()
    out_path = os.path.join(args.out, "roc.csv")
    write_csv(
        out_path,
        ["theta", "tpr_face", "fpr_face", "tpr_occlusion", "fpr_occlusion"],
        rows,
    )
    print(out_path)
    return 0


def cmd_sweep(args, timer) -> int:
    os.makedirs(args.out, exist_ok=True)
    with timer.time("load"):
        sample_sets = load_sample_sets(args.samples)
        gallery, probes, shape = read_corpus(args.corpus, ("test", "invalid"), args.features)

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
    """Comma-separated shape names, an empty one a clean slot; "" is none."""
    return tuple(text.split(",")) if text else ()


def _sizes(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    """One parser per command. Option names are the config keys; options
    named like the fields of a config dataclass fill those fields, and are
    absent from the parsed arguments when left out."""
    parser = _Parser(prog="occlucode", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--out", required=True, help="output directory")
        return p

    def boolean(p, name, default):
        p.add_argument(name, type=_flag, nargs="?", const=True, default=default,
                       help="true/false/yes/no/1/0; alone means true")

    def ksvd(p):
        for flag in ("--sparsity-budget", "--iterations", "--seed"):
            p.add_argument(flag, type=int)

    p = command("synth", "generate a synthetic corpus")
    for flag in ("--classes", "--samples-per-class", "--test-per-class", "--height",
                 "--width", "--subspace-dim", "--seed", "--collect-classes",
                 "--collect-per-class", "--invalid-classes", "--invalid-per-class"):
        p.add_argument(flag, type=int)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--shapes", dest="occlusion_shapes", type=parse_shapes,
                   help="name:kind:fraction[,...]")
    p.add_argument("--unknown-shapes", type=parse_shapes)
    p.add_argument("--test-shapes", type=_names, help='name[,...]; "" is a clean slot')

    p = command("collect", "collect occlusion samples from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--strategy", choices=["soc", "ssrc", "esrc"], default="soc")
    boolean(p, "--labeled", True)
    boolean(p, "--debug", False)
    p.add_argument("--h", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--tau-schedule", type=parse_taus)
    p.add_argument("--max-outer-iters", type=int)
    p.add_argument("--neighborhood", choices=["4-connected", "8-connected"])
    p.add_argument("--min-support-fraction", type=float)

    p = command("train", "train an occlusion dictionary with K-SVD")
    p.add_argument("--samples", action="append", required=True,
                   help="sample matrix prefix (repeatable)")
    p.add_argument("--atoms", dest="atom_count", type=int)
    ksvd(p)

    def coding(name, help):
        """A command that codes the corpus's probes over its gallery."""
        p = command(name, help)
        p.add_argument("--corpus", required=True)
        p.add_argument("--mode", choices=[L1, STRUCTURED, SRC_MODE], default=STRUCTURED)
        p.add_argument("--features", type=parse_hw, default=None,
                       help="downsampled feature resolution, e.g. 12x10")
        for flag in ("--epsilon", "--lam", "--q-norm", "--tol"):
            p.add_argument(flag, type=float)
        p.add_argument("--max-iters", type=int)
        return p

    p = coding("classify", "classify test images")
    p.add_argument("--occdict", action="append", default=[],
                   help="occlusion dictionary prefix (repeatable)")
    p.add_argument("--theta-face", type=float)
    p.add_argument("--theta-occlusion", type=float)
    boolean(p, "--debug", False)
    p = coding("roc", "rejection-threshold sweep")
    p.add_argument("--occdict", action="append", default=[],
                   help="occlusion dictionary prefix (repeatable)")
    p = coding("sweep", "accuracy vs occlusion dictionary size")
    p.add_argument("--theta-face", type=float)
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
        timer = StageTimer()
        code = COMMANDS[args.command](args, timer)
        if timer.stages:
            timer.write(args.out)
        return code
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
