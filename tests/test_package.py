"""The package's top-level names: a fixed surface, each loaded on first use
from its home module."""

import ast
import importlib
from pathlib import Path

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


# Every function whose body names itself, by module and qualified name: a
# bare load of its own name, or in a method `self.<name>` or `cls.<name>`.
# The scalar and formula traversals run on `scalars.walk` or on loops and
# are not listed; a new recursive traversal fails here, and each later
# port shortens the list.
RECURSIVE = {
    # substitution: its atom map calls it on each atom, one level deep,
    # which the benchmark's self-test probe counts
    "scalars.s_subst",
    # the cell walk: one level per coordinate, at most the group's rank
    "cells._walk",
    # the independent evaluators that elimination is checked against
    "oracle.s_grid_eval", "oracle._ev", "oracle.grid_eval",
    # the parser: one level per parenthesis, at most formulas.MAX_DEPTH
    "formulas._Parser.formula", "formulas._Parser._sum",
    # bounded: the code header (by _HEADER_DEPTH), the fuzz generators
    # (by FuzzLimits) and code_segment
    "codes._header_to_obj", "codes._header_from_obj.walk",
    "oracle._rand_qf", "oracle._rand_bounded", "codes.code_segment",
}


def _names_itself(node, name: str, method: bool) -> bool:
    if isinstance(node, ast.Name):
        return node.id == name and isinstance(node.ctx, ast.Load)
    return (method and isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
            and isinstance(node.ctx, ast.Load))


def _self_naming(node, prefix, module, out, in_class=False):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if isinstance(child, ast.FunctionDef) and any(
                    _names_itself(n, child.name, in_class)
                    for stmt in child.body for n in ast.walk(stmt)):
                out.add(f"{module}.{name}")
            _self_naming(child, name + ".", module, out,
                         isinstance(child, ast.ClassDef))
        else:
            _self_naming(child, prefix, module, out, in_class)


def test_recursion_is_only_where_pinned():
    """A function that loads its own name recurses (directly, or through
    something like `map(size, parts)`); Python recursion ends at the
    interpreter's depth limit, not in an answer or a typed error."""
    found: set = set()
    for path in sorted(Path(oagkit.__file__).resolve().parent.glob("*.py")):
        _self_naming(ast.parse(path.read_text()), "", path.stem, found)
    assert found == RECURSIVE


def test_the_scan_sees_a_method_calling_itself():
    code = ast.parse("class A:\n"
                     "    def f(self):\n        return self.f()\n"
                     "    @classmethod\n"
                     "    def g(cls):\n        return cls.g\n"
                     "    def h(self):\n        return other.h()\n"
                     "def k(self):\n    return self.k()\n")
    found: set = set()
    _self_naming(code, "", "m", found)
    assert found == {"m.A.f", "m.A.g"}


def _relative_imports(stem: str):
    """The parsed module oagkit/<stem>.py, and (module, name) for each
    name it imports from a sibling module; (module, None) for a sibling
    imported whole."""
    tree = ast.parse((Path(oagkit.__file__).resolve().parent
                      / f"{stem}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update((node.module, a.name) if node.module else (a.name, None)
                       for a in node.names)
    return tree, out


def test_the_cell_model_stays_behind_its_module():
    """Only `cells` builds or reads the cell model: `segments`, `typegen`
    and `codes` use no private name of `qe` or `cells`, and the first two
    read no model's roots or fibres; `cells` imports neither `qe` nor
    `segments`, so nothing imports it in a cycle."""
    for stem in ("segments", "typegen", "codes"):
        tree, imports = _relative_imports(stem)
        private = {(mod, name) for mod, name in imports
                   if mod in ("qe", "cells") and name
                   and name.startswith("_")}
        private |= {(node.value.id, node.attr) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("qe", "cells")
                    and node.attr.startswith("_")}
        assert private == set(), stem
        if stem != "codes":
            read = {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)}
            assert read & {"roots", "fibres"} == set(), stem
    _, imports = _relative_imports("cells")
    assert {mod for mod, _ in imports} & {"qe", "segments"} == set()
