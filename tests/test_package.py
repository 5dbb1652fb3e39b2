"""The package's top-level names: a fixed surface, each loaded on first use
from its home module."""

import importlib

import pytest

import oagkit

HOMES = {
    "errors": ["BudgetExceeded", "CodeError", "FormulaError", "GroupError",
               "OagError", "OracleError", "OutputTooLarge", "ParseError",
               "SegmentError", "TypeGenError"],
    "groups": ["ConvexSubgroup", "Element", "FiniteQuotientElement",
               "GroupSpec", "QuotientElement", "compare", "compute_chi",
               "compute_rj", "conv_jump", "element", "is_n_regular_block",
               "parse_group", "project", "project_fin", "regular_rank",
               "representatives_mod", "rj_levels", "subgroup_an",
               "subgroup_bn"],
    "formulas": ["free_vars", "is_quantifier_free", "parse", "print_formula"],
    "qe": ["decide", "eliminate", "entails", "equivalent", "satisfiable",
           "witness"],
    "segments": ["CongrLiteral", "DivSegment", "NiceSet", "end_hull",
                 "is_end_segment", "is_initial_segment", "nice_decompose",
                 "stabilizer", "to_div_segment", "to_div_segment_initial"],
    "codes": ["Code", "TypeDescriptor", "code_finite_set", "code_from_obj",
              "code_segment", "code_set", "code_to_obj", "code_type",
              "enumerate_finite_quotient", "reconstruct"],
    "oracle": ["Box", "FuzzLimits", "evaluate", "expand_bounded",
               "fuzz_corpus"],
    "typegen": ["check_descriptor", "generic_type", "generic_type_trace"],
}
NAMES = [name for names in HOMES.values() for name in names]


def test_all_is_the_pinned_surface():
    assert oagkit.__all__ == NAMES
    assert len(set(oagkit.__all__)) == len(oagkit.__all__) == 67


@pytest.mark.parametrize("module", list(HOMES))
def test_names_are_their_home_modules_objects(module):
    home = importlib.import_module(f"oagkit.{module}")
    for name in HOMES[module]:
        assert getattr(oagkit, name) is getattr(home, name)


def test_star_import_binds_every_name():
    ns: dict = {}
    exec("from oagkit import *", ns)
    assert all(ns[name] is getattr(oagkit, name) for name in NAMES)
    assert set(NAMES) <= set(dir(oagkit))


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(oagkit, "nope")
    with pytest.raises(AttributeError, match="nope"):
        oagkit.nope
    with pytest.raises(ImportError):
        exec("from oagkit import nope", {})
