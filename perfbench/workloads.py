"""The benchmark's workloads.

Each workload builds its inputs from the seed, hands the library only the
generated images and dictionaries, and checks the library's outputs. In
``recognize`` and ``learn`` the gallery, the occlusion textures and a large
pool of test faces are a fixed recipe, as an enrolled gallery is in use;
the seed draws which faces are probed and which occlusion each probe
wears. Drawing only the probes keeps the figures of one seed close to those
of another, so a run of fixed length is steady. The corpus of ``cli`` is a
fixed recipe too; the seed draws which of its test faces the manifest
lists.

A workload provides:

    setup(seed) -> state        inputs and anything built before timing
    setup_digest(state)         equal across repeated set-ups
    items(state)                [(item_id, run)], one pass, run() -> result
    same_result(a, b)           whether a repeated item gave the same result
    summarize(state, results)   Summary of the first pass
    teardown(state)             removes files the workload wrote
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
import tempfile
import time
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import occlucode as oc
from occlucode.cli import main as cli_main
from occlucode.errors import OcclucodeError

# The acceptance suite's fast solver settings.
SOLVER = oc.SolverConfig(epsilon=0.05, tol=3e-5, max_iters=400, max_continuation=30)
RESIDUAL_SLACK = 1e-6
GALLERY_SEED = 11
POOL_PER_CLASS = 10  # test faces per class the seed draws from
SHAPE = (30, 24)
FEATURES = (12, 10)
MODES = ("structured", "l1", "src")
TAIL_BEYOND = 10  # samples required beyond a reported tail percentile


@dataclass
class Summary:
    """Figures of a run's first pass.

    ``accuracy``, ``mask_iou`` and ``ksvd_error`` are the gated metrics every
    workload reports; ``named`` holds the workload's own metrics as
    ``{name: (value, unit)}``; ``failures`` counts failed operations by
    error type."""

    accuracy: float
    mask_iou: float
    ksvd_error: float
    attempted: int
    failures: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)
    named: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    @property
    def failed(self):
        return sum(self.failures.values())


class Workload:
    def __init__(self, root):
        # one directory per run, so that runs sharing a checkout do not
        # remove each other's files
        self.tmp_root = os.path.join(root, ".bench_tmp", f"run{os.getpid()}")
        self.tracer = None  # set during a traced run

    def teardown(self, state):
        pass


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, n). With fewer than TAIL_BEYOND + 1
    samples no percentile qualifies, and the maximum is reported with
    percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    k = n - TAIL_BEYOND - 1  # xs[k] has exactly TAIL_BEYOND samples above it
    return xs[k], 100.0 * (k + 1) / n, n


def _iou(est_occ, true_occ):
    union = np.logical_or(est_occ, true_occ).sum()
    return float(np.logical_and(est_occ, true_occ).sum() / union) if union else 1.0


def _auc(valid, invalid):
    """Area under the accept-rate curve of RDI thresholds; NaN accepts."""
    thetas = np.linspace(0, 1, 101)
    v, iv = np.asarray(valid), np.asarray(invalid)
    tpr = [(np.isnan(v) | (v <= t)).mean() for t in thetas]
    fpr = [(np.isnan(iv) | (iv <= t)).mean() for t in thetas]
    return float(np.trapezoid(tpr, fpr))


def _classifier(mode, **kwargs):
    return oc.ClassifierConfig(sparsity_mode=mode, solver=SOLVER, theta_face=1.0,
                               theta_occlusion=1.0, **kwargs)


def _collect_dictionary(gallery, spec, category, faces, mask_cfg, ksvd_cfg):
    """Occlusion dictionary of one category from labeled collection faces,
    plus the IoU of each estimated mask and the K-SVD error trace."""
    patterns, ious = [], []
    for v, label in faces:
        occluded, truth = oc.apply_occlusion(v, category, spec)
        pattern = oc.collect_soc(oc.normalize_vector(occluded), gallery, label, mask_cfg)
        patterns.append(pattern)
        ious.append(_iou(pattern.data != 0, np.asarray(truth.support) == 0))
    sample_set = oc.build_sample_set(patterns, category, "soc", True)
    dictionary, trace = oc.ksvd_train_with_trace(sample_set, ksvd_cfg)
    return dictionary, trace, ious


# ---------------------------------------------------------------------------
# recognize


class Recognize(Workload):
    """Classify occluded faces with the structured, l1 and src coders.

    BPDN coding and the residual decisions do almost all the timed work;
    mask estimation and K-SVD run only in set-up. Two occlusion categories
    make the occlusion-side residuals and RDI run."""

    CLASSES = 30
    ATOMS = 4
    NOT_ENROLLED = 10  # classes outside the gallery
    SHAPES = (oc.OcclusionShape("scarf", "lower-band", 0.6),
              oc.OcclusionShape("sunglasses", "upper-band", 0.2))
    COLLECT = 6  # collection faces per category
    OTHER_PROBES = 8  # probes of subjects outside the gallery
    MASK = oc.MaskEstimatorConfig(h=20, beta=1.5)
    KSVD = oc.KsvdConfig(atom_count=4, sparsity_budget=4, iterations=20, seed=0)

    def setup(self, seed):
        spec = oc.SynthSpec(
            classes=self.CLASSES + self.NOT_ENROLLED, samples_per_class=self.ATOMS,
            height=SHAPE[0], width=SHAPE[1], subspace_dim=3,
            occlusion_shapes=self.SHAPES, noise_sigma=0.01, seed=GALLERY_SEED,
            test_per_class=POOL_PER_CLASS,
        )
        rng = np.random.default_rng(seed)
        everyone, test = oc.generate_gallery(spec)
        gallery = oc.BlockedDictionary(
            everyone.atoms[:, : self.CLASSES * self.ATOMS],
            everyone.blocks[: self.CLASSES],
        )
        enrolled_labels = {b.label for b in gallery.blocks}
        enrolled = [t for t in test if t[1] in enrolled_labels]
        others = [t for t in test if t[1] not in enrolled_labels]
        categories = [s.name for s in self.SHAPES]

        # Face k of the first classes is collected for category k. The seed
        # draws one probe per enrolled class from the rest of its faces, the
        # order in which the probes alternate between categories, and the
        # probes of subjects outside the gallery.
        occ_dicts, traces, ious = [], [], []
        for k, category in enumerate(categories):
            faces = [enrolled[j * POOL_PER_CLASS + k] for j in range(self.COLLECT)]
            d, trace, iou = _collect_dictionary(
                gallery, spec, category, faces, self.MASK, self.KSVD)
            occ_dicts.append(d)
            traces.append(trace)
            ious += iou
        free = range(len(categories), POOL_PER_CLASS)
        probes_src = [enrolled[c * POOL_PER_CLASS + int(rng.choice(free))]
                      for c in rng.permutation(self.CLASSES)]
        others = [others[i] for i in rng.permutation(len(others))[: self.OTHER_PROBES]]

        th, tw = FEATURES
        D = oc.downsample_dictionary(gallery, SHAPE, th, tw)
        R = oc.build_compound(
            [D], [oc.downsample_dictionary(B, SHAPE, th, tw) for B in occ_dicts])
        probes = []
        for i, (v, label) in enumerate(probes_src + others):
            category = categories[i % len(categories)]
            occluded, _ = oc.apply_occlusion(v, category, spec)
            u = oc.normalize_vector(oc.downsample_vector(occluded, th, tw))
            probes.append((u, label, category, label in enrolled_labels))
        return {
            "D": D, "R": R, "R_src": oc.with_identity_block(D), "probes": probes,
            "traces": traces, "ious": ious, "mode_s": {m: [] for m in MODES},
            "cfg": {
                "structured": _classifier("structured"),
                "l1": _classifier("l1"),
                "src": _classifier("l1", baseline_identity_occlusion=True),
            },
        }

    def setup_digest(self, state):
        return state["R"].fingerprint, state["R_src"].fingerprint

    def items(self, state):
        return [(i, lambda p=p: self._recognize(state, p))
                for i, p in enumerate(state["probes"])]

    def _recognize(self, state, probe):
        u, _, _, _ = probe
        out = {}
        for mode, cfg in state["cfg"].items():
            t0 = time.perf_counter()
            try:
                if mode == "src":
                    out[mode] = oc.classify_src_baseline(u, state["D"], cfg)
                else:
                    out[mode] = oc.classify(u, state["R"], cfg)
            except OcclucodeError as exc:
                out[mode] = exc
            state["mode_s"][mode].append(time.perf_counter() - t0)
        return out

    @staticmethod
    def _key(outcome):
        if isinstance(outcome, Exception):
            return repr(outcome)
        return (outcome.face_label, outcome.occlusion_label,
                repr(outcome.rdi_face), repr(outcome.rdi_occlusion))

    def same_result(self, first, again):
        return all(self._key(first[m]) == self._key(again[m]) for m in first)

    def summarize(self, state, results):
        errors, failures, attempted, above_eps = [], Counter(), 0, Counter()
        correct = {mode: 0 for mode in state["cfg"]}
        occ_correct = 0
        rdi_in, rdi_out = [], []
        n_enrolled = 0
        for i, (u, label, category, enrolled) in enumerate(state["probes"]):
            for mode, outcome in results[i].items():
                attempted += 1
                if isinstance(outcome, Exception):
                    failures[type(outcome).__name__] += 1
                    continue
                R = state["R_src"] if mode == "src" else state["R"]
                w = outcome.coefficients.values
                resid = float(np.linalg.norm(u.data - R.atoms @ w))
                if not np.isfinite(resid):
                    errors.append(f"probe {i} {mode}: residual is not finite")
                # A solve whose residual misses eps reports itself as not
                # converged in SolveReport, which classify drops; the traced
                # run fails a solve that claims convergence above eps.
                above_eps[mode] += resid > SOLVER.epsilon * (1 + RESIDUAL_SLACK)
                if enrolled:
                    correct[mode] += outcome.face_label == label
                if mode == "structured":
                    (rdi_in if enrolled else rdi_out).append(outcome.rdi_face)
                    occ_correct += outcome.occlusion_label == category
            n_enrolled += enrolled
        named = {f"face_accuracy.{m}": (c / n_enrolled, "fraction")
                 for m, c in correct.items()}
        named["occlusion_accuracy"] = (occ_correct / len(state["probes"]), "fraction")
        named["rejection_auc"] = (_auc(rdi_in, rdi_out), "fraction")
        for mode, secs in state["mode_s"].items():  # every call of the run
            named[f"images_per_s.{mode}"] = (len(secs) / sum(secs), "1/s")
        secs = state["mode_s"]["structured"]
        value, pct, n = tail(secs)
        named["classify_ms.p50"] = (1e3 * float(np.median(secs)), "ms")
        named["classify_ms.tail"] = (1e3 * value, "ms")
        detail = {
            "classify_ms.tail_percentile": pct,
            "classify_ms.tail_samples": n,
            "residual_above_eps": dict(above_eps),
            "probes": {"enrolled": n_enrolled,
                       "not_enrolled": len(state["probes"]) - n_enrolled},
        }
        return Summary(
            accuracy=correct["structured"] / n_enrolled,
            mask_iou=float(np.mean(state["ious"])),
            ksvd_error=float(sum(t[-1] for t in state["traces"])),
            attempted=attempted, failures=failures, errors=errors,
            named=named, detail=detail,
        )


# ---------------------------------------------------------------------------
# learn


class Learn(Workload):
    """Collect occlusion patterns with two face bases, then compress them.

    The LAD LP, the grid min-cut and K-SVD do almost all the work; the BPDN
    solvers do none. The labeled basis (5 columns) and the local
    correlation dictionary (20 atoms) run the same LP at two widths."""

    CLASSES = 20
    ATOMS = 5
    SHAPES = (oc.OcclusionShape("scarf", "lower-band", 0.5),
              oc.OcclusionShape("patch", "rectangle", 0.25))
    PER_CATEGORY = 10
    MASK = oc.MaskEstimatorConfig(h=20, beta=1.5)
    KSVD = oc.KsvdConfig(atom_count=6, sparsity_budget=4, iterations=20, seed=0)

    def setup(self, seed):
        spec = oc.SynthSpec(
            classes=self.CLASSES, samples_per_class=self.ATOMS,
            height=SHAPE[0], width=SHAPE[1], subspace_dim=3,
            occlusion_shapes=self.SHAPES, noise_sigma=0.01, seed=GALLERY_SEED,
            test_per_class=POOL_PER_CLASS,
        )
        gallery, test = oc.generate_gallery(spec)
        rng = np.random.default_rng(seed)
        count = self.PER_CATEGORY * len(self.SHAPES)
        faces = [test[i] for i in rng.permutation(len(test))[:count]]
        images = []
        for i, (v, label) in enumerate(faces):
            category = self.SHAPES[i % len(self.SHAPES)].name
            occluded, truth = oc.apply_occlusion(v, category, spec)
            images.append((oc.normalize_vector(occluded), label, category,
                           np.asarray(truth.support) == 0))
        return {"gallery": gallery, "images": images, "collect_s": []}

    def setup_digest(self, state):
        return state["gallery"].fingerprint, hashlib.sha256(
            b"".join(u.data.tobytes() for u, *_ in state["images"])).hexdigest()

    def items(self, state):
        items = [(i, lambda im=im: self._collect(state, im))
                 for i, im in enumerate(state["images"])]
        # K-SVD of a category compresses the patterns collected since its
        # last run, i.e. those of the current pass
        state["patterns"] = {s.name: [] for s in self.SHAPES}
        items += [(s.name, lambda c=s.name: self._train(state, c)) for s in self.SHAPES]
        return items

    def _collect(self, state, image):
        u, label, category, _ = image
        out = {}
        for basis, lab in (("labeled", label), ("lcd", None)):
            t0 = time.perf_counter()
            try:
                out[basis] = oc.collect_soc(u, state["gallery"], lab, self.MASK)
            except OcclucodeError as exc:
                out[basis] = exc
                continue
            finally:
                state["collect_s"].append(time.perf_counter() - t0)
            state["patterns"][category].append(out[basis])
        return out

    def _train(self, state, category):
        patterns = state["patterns"][category]
        state["patterns"][category] = []
        try:
            sample_set = oc.build_sample_set(patterns, category, "soc", True)
            return oc.ksvd_train_with_trace(sample_set, self.KSVD)
        except OcclucodeError as exc:
            return exc

    def same_result(self, first, again):
        if isinstance(first, Exception) or isinstance(again, Exception):
            return repr(first) == repr(again)
        if isinstance(first, tuple):  # K-SVD result
            return (np.array_equal(first[0].atoms, again[0].atoms)
                    and first[1] == again[1])
        return all(
            repr(first[k]) == repr(again[k]) if isinstance(first[k], Exception)
            else np.array_equal(first[k].data, again[k].data)
            for k in first
        )

    def summarize(self, state, results):
        errors, failures, attempted = [], Counter(), 0
        ious, pixel_acc, by_basis = [], [], {}
        ksvd_error = 0.0
        for item_id, result in results.items():
            if isinstance(item_id, str):  # K-SVD of one category
                attempted += 1
                if isinstance(result, Exception):
                    failures[type(result).__name__] += 1
                    continue
                _, trace = result
                if np.any(np.diff(trace) > 1e-12):
                    errors.append(f"K-SVD trace of {item_id} increases")
                ksvd_error += trace[-1]
                continue
            true_occ = state["images"][item_id][3]
            for basis, pattern in result.items():
                attempted += 1
                if isinstance(pattern, Exception):
                    failures[type(pattern).__name__] += 1
                    continue
                if abs(np.linalg.norm(pattern.data) - 1.0) > 1e-9:
                    errors.append(f"image {item_id} {basis}: pattern not unit-norm")
                est_occ = pattern.data != 0
                ious.append(_iou(est_occ, true_occ))
                pixel_acc.append(float((est_occ == true_occ).mean()))
                by_basis.setdefault(basis, []).append(ious[-1])
        secs = state["collect_s"]  # every collect_soc call of the run
        named = {
            "masks_per_s": (len(secs) / sum(secs), "1/s"),
            "mask_iou": (float(np.mean(ious)), "fraction"),
            "ksvd_error": (ksvd_error, "frobenius"),
        }
        detail = {f"mask_iou.{b}": float(np.mean(v)) for b, v in by_basis.items()}
        detail["mask_pixel_accuracy"] = float(np.mean(pixel_acc))
        return Summary(
            accuracy=float(np.mean(pixel_acc)),
            mask_iou=float(np.mean(ious)),
            ksvd_error=ksvd_error,
            attempted=attempted, failures=failures, errors=errors,
            named=named, detail=detail,
        )


# ---------------------------------------------------------------------------
# cli


class Cli(Workload):
    """The command-line pipeline, run in-process through ``occlucode.cli.main``.

    It writes files next to reading them, and every occlusion dictionary it
    trains is reloaded and downsampled for a few dozen images, so a
    per-dictionary cost is paid four times here where ``recognize`` pays it
    once. The sweep also retrains K-SVD for each size."""

    SYNTH = [
        "--classes", "6", "--samples-per-class", "4", "--test-per-class", "6",
        "--height", "30", "--width", "24", "--subspace-dim", "3",
        "--noise-sigma", "0.01", "--seed", "11",
        "--shapes", "scarf:lower-band:0.5", "--test-shapes", "scarf",
        "--collect-classes", "3", "--collect-per-class", "3",
        "--invalid-classes", "2", "--invalid-per-class", "4",
    ]
    LISTED = {"test": 24, "invalid": 6}  # rows of each role the seed draws
    CLASSIFY = ["--mode", "structured", "--features", "12x10",
                "--tol", "3e-5", "--max-iters", "400"]
    SIZES = "2,8"
    ATOMS = "8"
    ITERATIONS = "20"
    # Each command's output directory within a pass.
    COMMANDS = ("collect", "train", "classify", "roc", "sweep")

    def setup(self, seed):
        os.makedirs(self.tmp_root, exist_ok=True)
        base = tempfile.mkdtemp(prefix="cli_", dir=self.tmp_root)
        corpus = os.path.join(base, "corpus")
        code = self._run("synth", ["synth", "--out", corpus] + self.SYNTH)
        if code != 0:
            raise RuntimeError(f"synth exited with {code}")
        self._draw_rows(os.path.join(corpus, "manifest.txt"), seed)
        return {"base": base, "corpus": corpus, "passes": 0, "times": {}}

    def _draw_rows(self, manifest, seed):
        """Keep the seed's draw of test and invalid rows in the manifest."""
        with open(manifest) as f:
            header, *rows = f.readlines()
        rng = np.random.default_rng(seed)
        keep = [r for r in rows if r.split("\t")[4].strip() not in self.LISTED]
        for role, count in self.LISTED.items():
            pool = [r for r in rows if r.split("\t")[4].strip() == role]
            keep += [pool[i] for i in sorted(rng.permutation(len(pool))[:count])]
        with open(manifest, "w") as f:
            f.writelines([header] + keep)

    def setup_digest(self, state):
        return _tree_digest(state["corpus"])

    def teardown(self, state):
        shutil.rmtree(state["base"], ignore_errors=True)

    def _run(self, command, argv):
        sink = io.StringIO()
        span = self.tracer.span(f"cli.{command}") if self.tracer else nullcontext()
        with span, redirect_stdout(sink), redirect_stderr(sink):
            return cli_main(argv)

    def items(self, state):
        """One pass is the pipeline's commands in order, each an item, into
        a fresh directory that the first command creates."""
        return [(name, lambda name=name: self._command(state, name))
                for name in self.COMMANDS]

    def _command(self, state, name):
        if name == self.COMMANDS[0]:
            state["passes"] += 1
        out = os.path.join(state["base"], f"pass{state['passes']}")
        corpus = state["corpus"]
        samples = os.path.join(out, "collect", "samples_scarf")
        occdict = os.path.join(out, "train", "occdict_scarf")
        common = ["--corpus", corpus, "--occdict", occdict] + self.CLASSIFY
        argv = {
            "collect": ["--corpus", corpus, "--strategy", "soc", "--beta", "1.5"],
            "train": ["--samples", samples, "--atoms", self.ATOMS,
                      "--iterations", self.ITERATIONS],
            "classify": common,
            "roc": common,
            "sweep": ["--corpus", corpus, "--samples", samples,
                      "--sizes", self.SIZES] + self.CLASSIFY,
        }[name]
        t0 = time.perf_counter()
        code = self._run(name, [name, "--out", os.path.join(out, name)] + argv)
        state["times"].setdefault(name, []).append(time.perf_counter() - t0)
        return {"dir": out, "code": code,
                "digest": _tree_digest(os.path.join(out, name))}

    def same_result(self, first, again):
        return first["digest"] == again["digest"] and first["code"] == again["code"]

    def summarize(self, state, results):
        out, corpus = results["collect"]["dir"], state["corpus"]
        codes = {name: results[name]["code"] for name in self.COMMANDS}
        errors = [f"{cmd} exited with {code}" for cmd, code in codes.items() if code]
        if errors:
            return Summary(accuracy=float("nan"), mask_iou=float("nan"),
                           ksvd_error=float("nan"), attempted=1 + len(codes),
                           failures=Counter(exit=len(errors)), errors=errors)
        manifest = _read_table(os.path.join(corpus, "manifest.txt"), "\t")
        rejected = _read_table(os.path.join(out, "collect", "rejected.csv"), ",")
        collect_rows = [r for r in manifest if r["role"] == "collect"]
        # the synth command counts too, run once per set-up
        attempted = 1 + len(codes) + len(collect_rows)
        failures = Counter(r["reason"] for r in rejected)

        results_csv = _read_table(os.path.join(out, "classify", "results.csv"), ",")
        test = [r for r in results_csv if r["role"] == "test"]
        accuracy = sum(r["pred_face"] == r["true_face"] for r in test) / len(test)

        # estimated occluded set = nonzero support of each collected pattern
        skipped = {r["image"] for r in rejected}
        kept = [r for r in collect_rows if r["path"] not in skipped]
        samples = _read_matrix(os.path.join(out, "collect", "samples_scarf"))
        ious = [float("nan")]
        if samples.shape[1] != len(kept):
            errors.append("sample columns do not match the collected images")
        else:
            ious = [_iou(samples[:, j] != 0,
                         _read_pgm(os.path.join(corpus, row["mask_path"])) == 0)
                    for j, row in enumerate(kept)]

        trace = _read_table(os.path.join(out, "train", "trace_scarf.csv"), ",")
        errs = [float(r["frobenius_error"]) for r in trace]
        if np.any(np.diff(errs) > 1e-12):
            errors.append("K-SVD trace increases")
        sweep = _read_table(os.path.join(out, "sweep", "sweep.csv"), ",")
        detail = {
            "sweep_accuracy": {r["occlusion_atoms"]: float(r["accuracy"]) for r in sweep},
            "cli_wall_s": {cmd: float(np.median(t)) for cmd, t in state["times"].items()},
        }
        return Summary(
            accuracy=accuracy, mask_iou=float(np.mean(ious)), ksvd_error=errs[-1],
            attempted=attempted, failures=failures, errors=errors,
            named={"face_accuracy.structured": (accuracy, "fraction")},
            detail=detail,
        )


def _tree_digest(path):
    """Digest of every file under path except timings.txt, which holds wall
    times."""
    h = hashlib.sha256()
    for root, _dirs, files in sorted(os.walk(path)):
        for name in sorted(files):
            if name == "timings.txt":
                continue
            h.update(os.path.relpath(os.path.join(root, name), path).encode())
            with open(os.path.join(root, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


# The readers below parse the CLI's outputs without the library, so that the
# traced run's imageio spans hold only the pipeline's own file I/O.


def _read_table(path, delimiter):
    with open(path, newline="") as f:
        return list(csv.DictReader(f, delimiter=delimiter))


def _read_matrix(prefix):
    with open(prefix + ".json") as f:
        meta = json.load(f)
    data = np.fromfile(prefix + ".f64", dtype="<f8")
    return data.reshape(meta["n"], meta["m"]).T


def _read_pgm(path):
    with open(path, "rb") as f:
        raw = f.read()
    _magic, width, height, _maxval = raw.split(maxsplit=4)[:4]
    n = int(width) * int(height)
    return np.frombuffer(raw[-n:], dtype=np.uint8)


WORKLOADS = {"recognize": Recognize, "learn": Learn, "cli": Cli}
