"""socleq: exact local-ring engine for socle-ideal equality checks.

The package decides, in explicitly presented Noetherian local rings
A = (S / a)_m with S a weighted polynomial ring, whether I^2 = QI holds for
a parameter ideal Q and its socle enlargement I = Q : m, and computes the
surrounding invariants (lengths, multiplicities, reduction numbers, socles,
finite local cohomology at level zero).
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    EngineError,
    FieldMismatchError,
    InputError,
    ParseError,
    RingMismatchError,
    UndecidableError,
)
from .field import FP, QQ, Field, parse_field
from .limits import DEFAULT_LIMITS, Limits
from .ring import GREVLEX, GRADEDLEX, LEX, Block, MonomialOrder, Polynomial, RingSpec, compare
from .dsl import (
    RingFile,
    format_poly,
    format_ring_file,
    parse_poly,
    parse_poly_list,
    parse_ring_file,
)
from .groebner import Ideal, buchberger, eliminate, normal_form
from .idealops import (
    colon,
    colon_by_poly,
    equal_as_s_ideals,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    maximal_ideal,
    saturate,
)
from .localring import (
    Containment,
    Equality,
    LocalRing,
    SocleEqualityReport,
    StableLength,
    check_socle_square,
)
from .oracle import OracleAuditor, TruncatedAlgebra, oracle_member, oracle_quotient_dim
from .probes import (
    buchsbaum_probe,
    depth_probe,
    estimate_cm_type,
    invariance_probe,
    is_weak_sequence,
    lemma_colon_split,
    m_multiples_check,
    powered_colon_split,
    sample_element,
    sample_sop,
)
from .zoo import ZooEntry, build, idents
from .experiments import EXPERIMENTS, run_all, run_experiment
from .report import build_report, error_report, strip_timings, to_json, validate_report

__all__ = [
    "BudgetExceededError",
    "EngineError",
    "FieldMismatchError",
    "InputError",
    "ParseError",
    "RingMismatchError",
    "UndecidableError",
    "FP",
    "QQ",
    "Field",
    "parse_field",
    "DEFAULT_LIMITS",
    "Limits",
    "GREVLEX",
    "GRADEDLEX",
    "LEX",
    "Block",
    "MonomialOrder",
    "Polynomial",
    "RingSpec",
    "compare",
    "RingFile",
    "format_poly",
    "format_ring_file",
    "parse_poly",
    "parse_poly_list",
    "parse_ring_file",
    "Ideal",
    "buchberger",
    "eliminate",
    "normal_form",
    "colon",
    "colon_by_poly",
    "equal_as_s_ideals",
    "ideal_power",
    "ideal_product",
    "ideal_sum",
    "intersect",
    "maximal_ideal",
    "saturate",
    "Containment",
    "Equality",
    "LocalRing",
    "SocleEqualityReport",
    "StableLength",
    "check_socle_square",
    "OracleAuditor",
    "TruncatedAlgebra",
    "oracle_member",
    "oracle_quotient_dim",
    "buchsbaum_probe",
    "depth_probe",
    "estimate_cm_type",
    "invariance_probe",
    "is_weak_sequence",
    "lemma_colon_split",
    "m_multiples_check",
    "powered_colon_split",
    "sample_element",
    "sample_sop",
    "ZooEntry",
    "build",
    "idents",
    "EXPERIMENTS",
    "run_all",
    "run_experiment",
    "build_report",
    "error_report",
    "strip_timings",
    "to_json",
    "validate_report",
    "__version__",
]
