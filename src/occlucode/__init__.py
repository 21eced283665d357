"""Occlusion-robust sparse coding classification."""

from .core import (
    FACE,
    OCCLUSION,
    Block,
    BlockedDictionary,
    ClassificationOutcome,
    ImageVector,
    OcclusionMask,
    SparseCoefficients,
    downsample_dictionary,
    downsample_vector,
    normalize_vector,
    residual,
    stack_blocks,
)
from .classify import (
    ClassifierConfig,
    build_compound,
    classify,
    classify_many,
    classify_src_baseline,
    rdi,
    with_identity_block,
)
from .dictlearn import (
    KsvdConfig,
    OcclusionSampleSet,
    build_sample_set,
    collect_esrc,
    collect_soc,
    collect_ssrc,
    ksvd_train,
    ksvd_train_with_trace,
    spectrum,
)
from .maskest import (
    MaskEstimate,
    MaskEstimatorConfig,
    build_lcd,
    estimate_mask,
    extract_pattern,
    update_support,
)
from .solvers import (
    SolveReport,
    SolverConfig,
    solve_group_bpdn,
    solve_l1_bpdn,
)
from .synth import (
    CorpusPlan,
    OcclusionShape,
    SynthSpec,
    apply_occlusion,
    generate_corpus,
    generate_gallery,
)

__version__ = "0.1.0"
