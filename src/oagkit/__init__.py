"""Symbolic toolkit for lexicographic products of Z and Q.

Decision procedures (quantifier elimination over the group and its
quotient sorts), canonical normal forms for definable sets, canonical
codes for segments, sets and types, and a brute-force oracle for
differential testing.

`import oagkit` loads none of the submodules.  Each top-level name below
is imported from its home module on first use (PEP 562), so a caller
pays only for the layers it reaches: `oagkit.decide` loads `qe` and what
`qe` needs, never `segments`, `codes`, `typegen` or `oracle`.
"""

import importlib

# Each module and the names the package re-exports from it.
_EXPORTS = {
    "errors": ("BudgetExceeded", "CodeError", "FormulaError", "GroupError",
               "OagError", "OracleError", "OutputTooLarge", "ParseError",
               "SegmentError", "TypeGenError"),
    "groups": ("ConvexSubgroup", "Element", "FiniteQuotientElement",
               "GroupSpec", "QuotientElement", "compare", "compute_chi",
               "compute_rj", "conv_jump", "element", "is_n_regular_block",
               "parse_group", "project", "project_fin", "regular_rank",
               "representatives_mod", "rj_levels", "subgroup_an",
               "subgroup_bn"),
    "formulas": ("free_vars", "is_quantifier_free", "parse", "print_formula"),
    "qe": ("decide", "eliminate", "entails", "equivalent", "satisfiable",
           "witness"),
    "segments": ("CongrLiteral", "DivSegment", "NiceSet", "end_hull",
                 "is_end_segment", "is_initial_segment", "nice_decompose",
                 "stabilizer", "to_div_segment", "to_div_segment_initial"),
    "codes": ("Code", "TypeDescriptor", "code_finite_set", "code_from_obj",
              "code_segment", "code_set", "code_to_obj", "code_type",
              "enumerate_finite_quotient", "reconstruct"),
    "oracle": ("Box", "FuzzLimits", "evaluate", "expand_bounded",
               "fuzz_corpus"),
    "typegen": ("check_descriptor", "generic_type", "generic_type_trace"),
}

_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
