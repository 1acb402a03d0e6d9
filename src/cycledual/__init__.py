"""Euclidean and Hermitian self-dual repeated-root cyclic codes over GF(2^s)
built from dual-containing BCH codes via the [u|u+v] construction, with every
claimed property verified at desk scale and recorded in re-checkable
certificates."""

from .certificate import (
    CertificateFormatError,
    dumps,
    loads,
    read_certificate,
    write_certificate,
)
from .construct import (
    DistanceSummary,
    PaperFloor,
    SelfDualCertificate,
    VerificationError,
    build_family,
    family_parameters,
    paper_floor,
)
from .cyclic import CyclicCode, RootContext, hermitian_base, root_context
from .cyclo import (
    EUCLIDEAN,
    HERMITIAN,
    KINDS,
    CosetTable,
    DefiningSet,
    bch_bound,
    bch_defining_set,
    complement,
    is_coset_table,
    is_dual_containing_set,
    minimal_polynomial,
    set_map,
)
from .distance import (
    DEFAULT_BUDGET,
    DistanceReport,
    exact_min_distance,
    sampled_weight_upper_bound,
)
from .gf import (
    Embedding,
    Field,
    extension_with_embedding,
    field_create,
    nth_root_of_unity,
)
from .poly import Poly, conjugate_poly, product, x_pow_n_minus_1

__version__ = "0.1.0"

__all__ = [
    "CertificateFormatError",
    "CosetTable",
    "CyclicCode",
    "DEFAULT_BUDGET",
    "DefiningSet",
    "DistanceReport",
    "DistanceSummary",
    "EUCLIDEAN",
    "Embedding",
    "Field",
    "HERMITIAN",
    "KINDS",
    "PaperFloor",
    "Poly",
    "RootContext",
    "SelfDualCertificate",
    "VerificationError",
    "bch_bound",
    "bch_defining_set",
    "build_family",
    "complement",
    "conjugate_poly",
    "dumps",
    "exact_min_distance",
    "extension_with_embedding",
    "family_parameters",
    "field_create",
    "hermitian_base",
    "is_coset_table",
    "is_dual_containing_set",
    "loads",
    "minimal_polynomial",
    "nth_root_of_unity",
    "paper_floor",
    "product",
    "read_certificate",
    "root_context",
    "sampled_weight_upper_bound",
    "set_map",
    "write_certificate",
    "x_pow_n_minus_1",
]
