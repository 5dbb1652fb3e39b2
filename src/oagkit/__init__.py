"""Symbolic toolkit for lexicographic products of Z and Q.

Decision procedures (quantifier elimination over the group and its
quotient sorts), canonical normal forms for definable sets, canonical
codes for segments, sets and types, and a brute-force oracle for
differential testing.
"""

from .errors import (
    BudgetExceeded,
    CodeError,
    FormulaError,
    GroupError,
    OagError,
    OracleError,
    OutputTooLarge,
    ParseError,
    SegmentError,
    TypeGenError,
)
from .groups import (
    ConvexSubgroup,
    Element,
    FiniteQuotientElement,
    GroupSpec,
    QuotientElement,
    compare,
    compute_chi,
    compute_rj,
    conv_jump,
    element,
    is_n_regular_block,
    parse_group,
    project,
    project_fin,
    regular_rank,
    representatives_mod,
    rj_levels,
    subgroup_an,
    subgroup_bn,
)
from .formulas import free_vars, is_quantifier_free, parse, print_formula
from .qe import decide, eliminate, entails, equivalent, satisfiable, witness
from .segments import (
    CongrLiteral,
    DivSegment,
    NiceSet,
    end_hull,
    is_end_segment,
    is_initial_segment,
    nice_decompose,
    stabilizer,
    to_div_segment,
    to_div_segment_initial,
)
from .codes import (
    Code,
    TypeDescriptor,
    code_finite_set,
    code_from_obj,
    code_segment,
    code_set,
    code_to_obj,
    code_type,
    enumerate_finite_quotient,
    reconstruct,
)
from .oracle import Box, FuzzLimits, evaluate, expand_bounded, fuzz_corpus
from .typegen import check_descriptor, generic_type, generic_type_trace

__all__ = [
    "BudgetExceeded", "CodeError", "FormulaError", "GroupError", "OagError",
    "OracleError", "OutputTooLarge", "ParseError", "SegmentError",
    "TypeGenError",
    "ConvexSubgroup", "Element", "FiniteQuotientElement", "GroupSpec",
    "QuotientElement", "compare", "compute_chi", "compute_rj", "conv_jump",
    "element", "is_n_regular_block", "parse_group", "project", "project_fin",
    "regular_rank", "representatives_mod", "rj_levels", "subgroup_an",
    "subgroup_bn",
    "free_vars", "is_quantifier_free", "parse", "print_formula",
    "decide", "eliminate", "entails", "equivalent", "satisfiable", "witness",
    "CongrLiteral", "DivSegment", "NiceSet", "end_hull", "is_end_segment",
    "is_initial_segment", "nice_decompose", "stabilizer", "to_div_segment",
    "to_div_segment_initial",
    "Code", "TypeDescriptor", "code_finite_set", "code_from_obj",
    "code_segment", "code_set", "code_to_obj", "code_type",
    "enumerate_finite_quotient", "reconstruct",
    "Box", "FuzzLimits", "evaluate", "expand_bounded", "fuzz_corpus",
    "check_descriptor", "generic_type", "generic_type_trace",
]

__version__ = "0.1.0"
