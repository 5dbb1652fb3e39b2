"""Batch command-line front end.

Every structured (json) result is a single line with stable key order,
tagged `oag-v1`, and echoes the run configuration so output files are
reproducible byte for byte.  Human format prints one `key: value` line
per field instead.  Exit codes: 0 success, 1 domain error or standard
output closed by its reader, 2 usage.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .errors import OagError, OracleError, Record, SegmentError
from .groups import (compute_chi, compute_rj, parse_group,
                     representatives_mod, subgroup_an, subgroup_bn, unit)

if TYPE_CHECKING:
    from .segments import CongrLiteral, DivSegment

FORMAT_VERSION = "oag-v1"


class Config(Record):
    """Run parameters echoed into every structured output."""

    group: str
    modbound: int = 12
    box: int = 8
    budget: Optional[int] = None
    seed: int = 0

    def to_obj(self) -> dict:
        return {f: getattr(self, f) for f in self._fields}


# --- value rendering --------------------------------------------------------


def _num(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    return int(x)


def _coords(a) -> list:
    return [_num(x) for x in a]


def _segment_obj(seg: DivSegment) -> dict:
    bound = seg.bound if isinstance(seg.bound, str) else _coords(seg.bound)
    return {"direction": seg.direction, "divisor": seg.n,
            "level": seg.level, "bound": bound, "relation": seg.rel}


def _congr_obj(lit: CongrLiteral) -> dict:
    return {"sign": lit.sign, "multiplier": lit.z, "level": lit.level,
            "modulus": lit.modulus, "beta": _coords(lit.beta),
            "offset": lit.offset}


def _descriptor_obj(p) -> dict:
    from .codes import code_to_obj
    cut = {"kind": p.cut[0]}
    if p.cut[0] == "realized":
        cut["value"] = _coords(p.cut[1])
    elif p.cut[0] == "at-segment":
        cut["segment"] = code_to_obj(p.cut[1])
    return {"cut": cut,
            "cosets": [{"level": c.level, "coords": _coords(c.coords)}
                       for c in p.cosets],
            "residues": [{"level": r.level, "modulus": r.modulus,
                          "residues": _coords(r.residues)}
                         for r in p.residues],
            "residue_bound": p.residue_bound}


# --- output plumbing --------------------------------------------------------


def _print_human(fields: dict, out) -> None:
    for key, value in fields.items():
        if isinstance(value, str):
            print(f"{key}: {value}", file=out)
        else:
            print(f"{key}: {json.dumps(value)}", file=out)


def _emit(cfg: Config, command: str, fields: dict, fmt: str, out) -> None:
    if fmt == "json":
        obj = {"version": FORMAT_VERSION, "command": command,
               "config": cfg.to_obj()}
        obj.update(fields)
        print(json.dumps(obj), file=out)
    else:
        _print_human(fields, out)


def _fail(cfg: Config, command: str, err: OagError, fmt: str, out) -> None:
    info = {"type": type(err).__name__, "message": str(err)}
    if fmt == "json":
        _emit(cfg, command, {"error": info}, fmt, out)
    else:
        print(f"error ({info['type']}): {info['message']}", file=out)


def _read_input(args) -> str:
    if getattr(args, "file", None):
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise OagError(f"cannot read {args.file}: {exc}") from None
    if getattr(args, "text", None) is None:
        raise OagError("missing input: pass a positional string or --file")
    return args.text


# --- commands ---------------------------------------------------------------
# Each command imports the layers it runs, so a cold `rank` never loads the
# eliminator and only `fuzzcheck` loads the oracle.


def _read_formula(g, args):
    from .formulas import parse
    return parse(g, _read_input(args))


def _cmd_parse(g, cfg, args):
    from . import formulas as fm
    f = _read_formula(g, args)
    return {"formula": fm.print_formula(f),
            "free": sorted(fm.free_vars(f)),
            "quantifier_free": fm.is_quantifier_free(f)}


def _cmd_qe(g, cfg, args):
    from .qe import eliminate
    from .scalars import print_scalar
    out = eliminate(g, _read_formula(g, args))
    return {"free": list(out.free), "scalar": print_scalar(out.body)}


def _cmd_decide(g, cfg, args):
    from .qe import decide
    return {"result": decide(g, _read_formula(g, args))}


def _cmd_equiv(g, cfg, args):
    from .formulas import parse
    from .qe import equivalent
    a = parse(g, args.left)
    b = parse(g, args.right)
    return {"result": equivalent(g, a, b)}


def _cmd_nice(g, cfg, args):
    from .segments import nice_decompose
    pieces = nice_decompose(g, _read_formula(g, args), args.var)
    return {"count": len(pieces),
            "pieces": [{"upper": _segment_obj(p.upper),
                        "lower": _segment_obj(p.lower),
                        "congruences": [_congr_obj(l) for l in p.congr]}
                       for p in pieces]}


def _cmd_endseg(g, cfg, args):
    from .codes import code_segment, code_to_obj
    from .segments import the_var, to_div_segment
    f = _read_formula(g, args)
    v = the_var(g, f, args.var)
    try:
        seg = to_div_segment(g, f, v)
    except SegmentError:
        return {"is_end_segment": False}
    return {"is_end_segment": True,
            "stabilizer_level": seg.level,
            "segment": _segment_obj(seg),
            "code": code_to_obj(code_segment(g, seg))}


def _cmd_code(g, cfg, args):
    from .codes import code_set, code_to_obj
    return {"code": code_to_obj(code_set(g, _read_formula(g, args),
                                         args.var))}


def _cmd_reconstruct(g, cfg, args):
    from .codes import code_from_obj, reconstruct
    from .formulas import print_formula
    text = _read_input(args)
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise OagError(f"input is not valid JSON: {exc}") from None
    if isinstance(obj, dict) and obj.get("command") == "code":
        # accept the code command's own output envelope as-is
        obj = obj.get("code")
    f = reconstruct(g, code_from_obj(obj), args.var or "x")
    return {"formula": print_formula(f)}


def _cmd_typegen(g, cfg, args):
    from .codes import code_to_obj, code_type
    from .typegen import check_descriptor, generic_type
    f = _read_formula(g, args)
    p = generic_type(g, f, cfg.modbound, args.var)
    checked = check_descriptor(g, p, f, args.var)
    return {"descriptor": _descriptor_obj(p),
            "code": code_to_obj(code_type(g, p)),
            "checked": checked}


def _cmd_rank(g, cfg, args):
    n = args.n if args.n is not None else 2
    rj = compute_rj(g, n)
    table = []
    for pos in range(1, g.n + 1):
        gamma = unit(g, pos)
        table.append({"gamma": _coords(gamma),
                      "an_level": subgroup_an(g, gamma, n).level,
                      "bn_level": subgroup_bn(g, gamma, n).level})
    return {"modulus": n, "rank": len(rj),
            "jump_levels": [c.level for c in rj], "subgroup_table": table}


def _cmd_chi(g, cfg, args):
    return {"prime": args.prime, "result": compute_chi(g, args.prime)}


def _cmd_reps(g, cfg, args):
    reps = representatives_mod(g, args.level, args.modulus)
    return {"level": args.level, "modulus": args.modulus,
            "count": len(reps), "representatives": [_coords(a) for a in reps]}


def _cmd_fuzzcheck(g, cfg, args):
    from . import oracle as orc
    from .formulas import free_vars, print_formula
    from .qe import decide, eliminate

    if any(kind != "Z" for kind in g.kinds):
        raise OagError(
            "fuzzcheck needs an all-discrete group: bounded quantifiers "
            "over a dense coordinate have no finite expansion")
    if args.count < 0:
        raise OagError(f"fuzz count must be at least 0, got {args.count}")
    if cfg.box < 0:
        raise OagError(f"box bound must be at least 0, got {cfg.box}")
    lim = orc.FuzzLimits(max_coeff=3, max_modulus=min(6, cfg.modbound),
                         max_depth=3, window=6)
    corpus = orc.fuzz_corpus(g, cfg.seed, args.count, limits=lim,
                             template="bounded")
    checked = failures = 0
    first = None
    for f in corpus:
        free = sorted(free_vars(f))
        if not free:
            with _budget(cfg):
                ok = decide(g, f) == orc.expand_bounded(g, f)
        else:
            genv = orc.grid_axes(g, free, cfg.box)
            senv = orc.scalar_axes(g, free, cfg.box, genv)
            with _budget(cfg):
                body = eliminate(g, f).body
            try:
                ok = (orc.s_grid_eval(g, body, senv)
                      == orc.grid_eval(g, f, genv))
            except MemoryError:
                raise OracleError(f"out of memory on the box-{cfg.box} grid; "
                                  "a smaller --box needs less") from None
        checked += 1
        if not ok:
            failures += 1
            if first is None:
                first = print_formula(f)
    return {"count": args.count, "checked": checked, "failures": failures,
            "first_counterexample": first}


# --- argument parsing -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", default="Z",
                        help="group spec, e.g. Z, Q, Z*Q*Z (default Z)")
    common.add_argument("--n", type=int, default=None,
                        help="integer parameter (regularity modulus)")
    common.add_argument("--modbound", type=int, default=12,
                        help="modulus bound L (default 12)")
    common.add_argument("--box", type=int, default=8,
                        help="oracle box bound B (default 8)")
    common.add_argument("--budget", type=int, default=None,
                        help="node budget for quantifier elimination")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for fuzzing (default 0)")
    common.add_argument("--format", choices=("human", "json"),
                        default="human", help="output format")

    top = argparse.ArgumentParser(
        prog="oagkit", description="ordered abelian group toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    def formula_cmd(name, help_, with_var=False):
        p = sub.add_parser(name, parents=[common], help=help_)
        p.add_argument("text", nargs="?", help="formula text")
        p.add_argument("--file", help="read the input from a file")
        if with_var:
            p.add_argument("--var", default=None,
                           help="distinguished variable name")
        return p

    formula_cmd("parse", "parse and reprint a formula")
    formula_cmd("qe", "eliminate quantifiers")
    formula_cmd("decide", "decide a sentence")

    p = sub.add_parser("equiv", parents=[common],
                       help="decide equivalence of two formulas")
    p.add_argument("left")
    p.add_argument("right")

    formula_cmd("nice", "canonical nice decomposition", with_var=True)
    formula_cmd("endseg", "end-segment analysis", with_var=True)
    formula_cmd("code", "canonical code of a definable set", with_var=True)
    formula_cmd("reconstruct", "rebuild a formula from a code object",
                with_var=True)
    formula_cmd("typegen", "generic type of a definable set", with_var=True)

    sub.add_parser("rank", parents=[common],
                   help="regular rank and jump levels")

    p = sub.add_parser("chi", parents=[common],
                       help="index of p-multiples")
    p.add_argument("prime", type=int)

    p = sub.add_parser("reps", parents=[common],
                       help="residue representatives modulo m at a level")
    p.add_argument("level", type=int)
    p.add_argument("modulus", type=int)

    p = sub.add_parser("fuzzcheck", parents=[common],
                       help="differential test against the finite oracle")
    p.add_argument("--count", type=int, default=200,
                   help="number of fuzzed formulas (default 200)")
    return top


_HANDLERS = {
    "parse": _cmd_parse, "qe": _cmd_qe, "decide": _cmd_decide,
    "equiv": _cmd_equiv, "nice": _cmd_nice, "endseg": _cmd_endseg,
    "code": _cmd_code, "reconstruct": _cmd_reconstruct,
    "typegen": _cmd_typegen, "rank": _cmd_rank, "chi": _cmd_chi,
    "reps": _cmd_reps, "fuzzcheck": _cmd_fuzzcheck,
}


def _budget(cfg: Config):
    """Each command's and `fuzzcheck` formula's node budget: none without
    a limit, so a cold command that builds no node loads no scalar layer."""
    if cfg.budget is None:
        return contextlib.nullcontext()
    from .scalars import budget_scope
    return budget_scope(cfg.budget)


def run(argv, out=None) -> int:
    """Execute one command line; returns the exit code."""
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = Config(group=args.group, modbound=args.modbound, box=args.box,
                 budget=args.budget, seed=args.seed)
    try:
        if args.modbound < 2:
            raise OagError(f"modulus bound must be at least 2, "
                           f"got {args.modbound}")
        g = parse_group(cfg.group)
        with _budget(cfg):
            fields = _HANDLERS[args.command](g, cfg, args)
    except OagError as err:
        _fail(cfg, args.command, err, args.format, out)
        return 1
    _emit(cfg, args.command, fields, args.format, out)
    return 0


def main() -> int:
    """`run` on the process's arguments.  A reader that closes standard
    output early ends the run with exit code 1 and no traceback; stdout
    then points at the null device, so the flush at exit cannot fail
    again."""
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code
