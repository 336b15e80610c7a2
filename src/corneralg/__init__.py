"""corneralg: structure and corner-compression analysis for unital matrix subalgebras."""

from .checker import (
    PASS_RESIDUAL,
    VIOLATION_RESIDUAL,
    CheckReport,
    FoldReport,
    Violation,
    check_compressible,
    corner_residual,
    fold_corner,
    witness_catalog,
)
from .classifier import (
    ClassifierInconsistencyError,
    GeneratedVerdict,
    Verdict,
    certify,
    classify,
    classify_generated,
)
from .families import FAMILY_TAGS, coordinate_projection, make_family, random_instance
from .io import (
    AlgebraFileError,
    decode_algebra,
    encode_algebra,
    read_algebra,
    write_algebra,
)
from .matcore import (
    DEFAULT_TOL,
    NumericalFailureError,
    ShapeMismatchError,
    Tolerance,
    haar_unitary,
    random_similarity,
)
from .structure import (
    BlockStructure,
    WedderburnData,
    radical,
    wedderburn,
)
from .subalgebra import (
    MatrixAlgebra,
    MatrixSubspace,
    algebra_from_span,
    compress,
    conjugate,
    generated_algebra,
    subspace_from,
    transpose_variant,
    unitize,
)

__all__ = [
    "AlgebraFileError",
    "BlockStructure",
    "CheckReport",
    "ClassifierInconsistencyError",
    "DEFAULT_TOL",
    "FAMILY_TAGS",
    "FoldReport",
    "GeneratedVerdict",
    "MatrixAlgebra",
    "MatrixSubspace",
    "NumericalFailureError",
    "PASS_RESIDUAL",
    "ShapeMismatchError",
    "Tolerance",
    "VIOLATION_RESIDUAL",
    "Verdict",
    "Violation",
    "WedderburnData",
    "algebra_from_span",
    "certify",
    "check_compressible",
    "classify",
    "classify_generated",
    "compress",
    "conjugate",
    "coordinate_projection",
    "corner_residual",
    "decode_algebra",
    "encode_algebra",
    "fold_corner",
    "generated_algebra",
    "haar_unitary",
    "make_family",
    "radical",
    "random_instance",
    "random_similarity",
    "read_algebra",
    "subspace_from",
    "transpose_variant",
    "unitize",
    "wedderburn",
    "witness_catalog",
    "write_algebra",
]

__version__ = "0.1.0"
