"""Exception hierarchy shared across the package."""


class OcclucodeError(Exception):
    """Base class for all library errors."""


class ZeroNormError(OcclucodeError):
    """Normalization requested for an all-zero vector."""


class BadDimsError(OcclucodeError):
    """Invalid target dimensions for a resize operation."""


class UnknownLabelError(OcclucodeError):
    """A block label is not present in the dictionary."""


class DuplicateLabelError(OcclucodeError):
    """Two blocks carry the same label."""


class DimMismatchError(OcclucodeError):
    """Operands have incompatible dimensions."""


class BadHError(OcclucodeError):
    """Locality-constrained dictionary size is out of range."""


class DegenerateError(OcclucodeError):
    """A computation collapsed to a degenerate state (e.g. the mask
    estimator discarded nearly all face pixels, or RDI was asked for a
    trivial residual set)."""


class ZeroPatternError(OcclucodeError):
    """No occlusion pattern to collect: no occluded pixels, or a zero residual."""


class EmptySamplesError(OcclucodeError):
    """Sample set is empty or too small for the requested dictionary."""


class BadSpecError(OcclucodeError):
    """Synthetic corpus specification violates its invariants."""


class UnknownShapeError(OcclucodeError):
    """Requested occlusion shape is not defined in the spec."""


class FormatError(OcclucodeError):
    """Malformed file contents."""


class RankDeficientWarning(UserWarning):
    """Sub-dictionary columns are not linearly independent; a pseudo-inverse
    or least-norm fallback was used."""
