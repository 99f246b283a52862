"""Command-line front end.

Every subcommand prints exactly one JSON report to standard output:

    {"command": ..., "inputs": ..., "outputs": ...,
     "derivation": [{"claim": ..., "reference": ..., "values": ...}, ...],
     "status": "ok" | "contradiction" | "error"}

Exit code 0 means ok, 2 means a successfully derived impossibility (the
mathematics says "no such surface/involution"), 1 means tool failure.  A
status of "error" always comes with empty outputs and a top-level "error"
message.  An error report keeps the parsed arguments as its inputs.

`code enumerate` optionally persists its results as a JSONL cache: a stamp
line (package version, algorithm id, code count), then one JSON object per
code.  A rerun with identical inputs reuses the file only if the stamp
matches and every line is the serialization of a canonical code of the
requested length, dimension range and weight rule, in order; otherwise it
recomputes and replaces the file atomically.  The NODALCODES_CACHE
environment variable overrides --cache.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__, covers, gf2, lattices
from .classify import (
    Step,
    classify_involution,
    feasible_kr_pairs,
    fiber_budget,
    saturated_node_sweep,
    small_rho_cases,
    solve_md,
)

__all__ = ["run", "main"]

Handler = Tuple[Dict[str, object], Dict[str, object], List[Step], str]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as status=error with
    exit code 1 instead of exiting with code 2 (reserved for
    contradictions)."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _code_dict(code: gf2.BinaryCode) -> Dict[str, object]:
    return {
        "length": code.length,
        "dim": code.dim,
        "generators": [
            gf2.word_to_string(g, code.length) for g in code.generators
        ],
        "weight_enumerator": {
            str(w): n for w, n in gf2.weight_enumerator(code).items()
        },
    }


def _load_code(path: str) -> gf2.BinaryCode:
    return gf2.parse_code(Path(path).read_text())


def _case_dict(case) -> Dict[str, object]:
    return {
        "label": case.label,
        "k": case.k,
        "rho_Y": case.rho_Y,
        "K2_Y": case.K2_Y,
        "Y_description": case.Y_description,
        "genus_of_pencil": case.genus_of_pencil,
        "derivation": [s.as_dict() for s in case.derivation],
    }


# ---------------------------------------------------------------------------
# subcommand handlers (each returns inputs, outputs, derivation, status)
# ---------------------------------------------------------------------------


def _cmd_code_analyze(args: argparse.Namespace) -> Handler:
    code = _load_code(args.file)
    reduced, support = gf2.reduce(code)
    outputs = dict(_code_dict(code))
    outputs.update(
        {
            "is_even": gf2.is_even(code),
            "is_doubly_even": gf2.is_doubly_even(code),
            "reduced_length": reduced.length,
            "reduced_support": list(support),
            "de_n": gf2.recognize_de(code),
        }
    )
    return {"file": args.file}, outputs, [], "ok"


def _cmd_code_de(args: argparse.Namespace) -> Handler:
    code = gf2.de(args.n)
    return {"n": args.n}, _code_dict(code), [], "ok"


def _cmd_code_equiv(args: argparse.Namespace) -> Handler:
    a = _load_code(args.a)
    b = _load_code(args.b)
    perm = gf2.equivalent(a, b)
    outputs = {
        "equivalent": perm is not None,
        "permutation": list(perm) if perm is not None else None,
    }
    return {"a": args.a, "b": args.b}, outputs, [], "ok"


def _cmd_code_recognize_de(args: argparse.Namespace) -> Handler:
    code = _load_code(args.file)
    n = gf2.recognize_de(code)
    outputs = {"n": n, "essentially_de": n is not None}
    return {"file": args.file}, outputs, [], "ok"


def _cache_lines(codes: Sequence[gf2.BinaryCode]) -> List[str]:
    return [
        json.dumps(_code_dict(c), sort_keys=True, separators=(",", ":"))
        for c in codes
    ]


# names the enumeration and canonical-form definitions a cache file holds
_CACHE_ALGORITHM = "enumerate_codes/aut-orbits/column-major-canonical"


def _cache_stamp(count: int) -> str:
    return json.dumps(
        {"algorithm": _CACHE_ALGORITHM, "count": count,
         "nodalcodes": __version__},
        sort_keys=True, separators=(",", ":"),
    )


def _read_cache(path: Path, args: argparse.Namespace) -> Optional[List[str]]:
    """The code lines of a cache file this version wrote for these
    arguments, or None if the file is missing, stale or fails a check."""
    try:
        stamp, *lines = path.read_text().splitlines()
        if stamp != _cache_stamp(len(lines)):
            return None
        ok = gf2._admissible(args.weights)
        previous: Tuple[int, Tuple[int, ...]] = (-1, ())
        for line in lines:
            code = gf2.make_code(json.loads(line)["generators"], args.length)
            key = (code.dim, code.generators)
            if (_cache_lines([code]) != [line]
                    or not args.dim_min <= code.dim <= args.dim_max
                    or key <= previous
                    or gf2.canonical_form(code)[0] != code
                    or not all(ok(h) for h in gf2.weight_enumerator(code)
                               if h)):
                return None
            previous = key
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return lines


def _write_cache(path: Path, lines: List[str]) -> None:
    # a reader sees the old file or the new one, never a partial write
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join([_cache_stamp(len(lines))] + lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cmd_code_enumerate(args: argparse.Namespace) -> Handler:
    inputs = {
        "length": args.length,
        "weights": args.weights,
        "dim_min": args.dim_min,
        "dim_max": args.dim_max,
        "cache": args.cache,
    }
    cache_dir = os.environ.get("NODALCODES_CACHE") or args.cache
    cache_file: Optional[Path] = None
    lines: Optional[List[str]] = None
    if cache_dir:
        name = (
            f"enumerate_len{args.length}_w{args.weights}"
            f"_dim{args.dim_min}-{args.dim_max}.jsonl"
        )
        cache_file = Path(cache_dir) / name
        lines = _read_cache(cache_file, args)
    if lines is None:
        codes = gf2.enumerate_codes(
            args.length, args.weights, args.dim_min, args.dim_max
        )
        lines = _cache_lines(codes)
        if cache_file is not None:
            _write_cache(cache_file, lines)
    outputs = {
        "count": len(lines),
        "codes": [json.loads(line) for line in lines],
        "cache_file": str(cache_file) if cache_file is not None else None,
    }
    return inputs, outputs, [], "ok"


def _cmd_lattice_build(args: argparse.Namespace) -> Handler:
    code = _load_code(args.code_file)
    lat = lattices.construction_a(code, args.scaling)
    text = lattices.lattice_to_json(lat)
    if args.out:
        Path(args.out).write_text(text + "\n")
    outputs = json.loads(text)
    outputs["out"] = args.out
    inputs = {"code_file": args.code_file, "scaling": args.scaling}
    return inputs, outputs, [], "ok"


def _cmd_lattice_identify(args: argparse.Namespace) -> Handler:
    lat = lattices.lattice_from_json(Path(args.file).read_text())
    report = lattices.identify_root_system(lat)
    outputs = dict(report.as_dict())
    outputs["discriminant"] = str(lattices.discriminant(lat))
    return {"file": args.file}, outputs, [], "ok"


def _cmd_cover_invariants(args: argparse.Namespace) -> Handler:
    inputs = {
        "chi": args.chi,
        "k2": args.k2,
        "c2": args.c2,
        "r": args.r,
        "m": args.m,
        "kodaira": args.kodaira,
    }
    base = covers.SurfaceInvariants(
        chi=args.chi, K2=args.k2, c2=args.c2, kodaira=args.kodaira
    )
    result = covers.cover_invariants(
        base, covers.CoverSpec(r=args.r, m=args.m)
    )
    steps = [
        Step(
            "chi and K^2 of the smooth cover branched on the m nodal "
            "curves follow from the degree-2^r formulas",
            "cover invariant formulas",
            {"chi": result.cover.chi, "K2": result.cover.K2},
        ),
        Step(
            "contracting the preimages of the branch curves blows down "
            "m * 2^(r-1) exceptional curves",
            "branch preimage count",
            {"blowdowns": result.blowdowns, "K2": result.contracted.K2},
        ),
    ]
    outputs = {
        "cover": result.cover.as_dict(),
        "contracted": result.contracted.as_dict(),
        "blowdowns": result.blowdowns,
        "warnings": list(result.warnings),
    }
    return inputs, outputs, steps, "ok"


def _cmd_bound_isotropic(args: argparse.Namespace) -> Handler:
    bound = covers.isotropic_bound(args.k, args.rho)
    steps = [
        Step(
            "an isotropic subspace of a rank-rho quadratic space has "
            "dimension at most rho // 2, so the code rank is at least "
            "k - rho // 2",
            "isotropic dimension bound",
            {"k": args.k, "rho": args.rho, "bound": bound},
        )
    ]
    return (
        {"k": args.k, "rho": args.rho},
        {"bound": bound},
        steps,
        "ok",
    )


def _cmd_bound_miyaoka(args: argparse.Namespace) -> Handler:
    nb = covers.miyaoka_max_nodes(args.k2, args.c2)
    outputs = {"max_nodes": nb.max_nodes, "assumptions": list(nb.assumptions)}
    steps = [
        Step(
            "the number of nodes is at most 2(3 c2 - K^2)/9",
            "orbifold Bogomolov-Miyaoka-Yau inequality",
            {"k2": args.k2, "c2": args.c2, "max_nodes": nb.max_nodes},
        )
    ]
    return {"k2": args.k2, "c2": args.c2}, outputs, steps, "ok"


def _cmd_bound_min_m(args: argparse.Namespace) -> Handler:
    value = covers.min_m_for_r(args.r)
    steps = [
        Step(
            "chi > 0 for the cover forces m >= 8 (2^r - 1) / 2^r",
            "positivity of the cover's holomorphic Euler characteristic",
            {"r": args.r, "min_m": value},
        )
    ]
    return {"r": args.r}, {"min_m": value}, steps, "ok"


def _cmd_classify_involution(args: argparse.Namespace) -> Handler:
    cases = classify_involution(args.k2)
    steps = [s for case in cases for s in case.derivation]
    status = (
        "contradiction"
        if all(c.label == "contradiction" for c in cases)
        else "ok"
    )
    outputs = {"cases": [_case_dict(c) for c in cases]}
    return {"k2": args.k2}, outputs, steps, status


def _cmd_classify_fibers(args: argparse.Namespace) -> Handler:
    multisets = fiber_budget(args.euler, args.nodes)
    steps = [
        Step(
            "fiber Euler numbers sum to at most the total while nodal "
            "capacities sum to exactly the required nodes",
            "Euler number budget of a relatively minimal elliptic "
            "fibration",
            {"euler": args.euler, "nodes": args.nodes,
             "count": len(multisets)},
        )
    ]
    outputs = {
        "count": len(multisets),
        "multisets": [[f.kind for f in ms] for ms in multisets],
    }
    return {"euler": args.euler, "nodes": args.nodes}, outputs, steps, "ok"


def _cmd_classify_kr_pairs(args: argparse.Namespace) -> Handler:
    pairs = sorted(feasible_kr_pairs())
    steps = [
        Step(
            "exhaustive enumeration of all-weight-4 codes of length "
            "k = rho - 2 for 5 <= rho <= 10 under the isotropic rank "
            "bound and m < 8",
            "code enumeration",
            {"pairs": [list(p) for p in pairs]},
        )
    ]
    outputs = {"pairs": [list(p) for p in pairs]}
    return {}, outputs, steps, "ok"


def _cmd_classify_thm_mt(args: argparse.Namespace) -> Handler:
    row = saturated_node_sweep(args.rho)
    outputs = {
        "rho": row.rho,
        "k": row.k,
        "K2_Y": row.K2_Y,
        "r_min": row.r_min,
        "survives": row.survives,
        "attained_r": list(row.attained_r),
        "tag": row.tag,
    }
    steps = [
        Step(
            f"k = rho - 1 = {row.k} disjoint nodal curves on a rational "
            f"surface with rho = {row.rho}: {row.tag}",
            "saturated node sweep",
            {"rho": row.rho, "r_min": row.r_min,
             "attained_r": list(row.attained_r)},
        )
    ]
    status = "ok" if row.survives else "contradiction"
    return {"rho": args.rho}, outputs, steps, status


def _cmd_classify_small_rho(args: argparse.Namespace) -> Handler:
    cases = small_rho_cases(args.rho)
    outputs = {
        "cases": [
            {"rho": c.rho, "k": c.k, "description": c.description}
            for c in cases
        ]
    }
    return {"rho": args.rho}, outputs, [], "ok"


def _cmd_solve_md(args: argparse.Namespace) -> Handler:
    sols = solve_md()
    steps = [
        Step(
            "d m = m + 2 d rewrites as (d - 1)(m - 2) = 2; the two "
            "factorizations of 2 give all positive solutions",
            "pencil Diophantine equation",
            {"solutions": [[s.m, s.d] for s in sols]},
        )
    ]
    outputs = {
        "solutions": [
            {"m": s.m, "d": s.d, "genus": s.genus} for s in sols
        ]
    }
    return {}, outputs, steps, "ok"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    # SUPPRESS keeps nested subparsers from clobbering a --pretty given at
    # an outer level with their own default
    common.add_argument(
        "--pretty", action="store_true", default=argparse.SUPPRESS,
        help="indent the JSON report for reading",
    )

    parser = _Parser(prog="nodalcodes", parents=[common])
    top = parser.add_subparsers(dest="group")

    def leaf(sub, name: str, handler, command: str, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler, command=command)
        return p

    code = top.add_parser("code", parents=[common]).add_subparsers()
    p = leaf(code, "analyze", _cmd_code_analyze, "code analyze",
             help="weights, evenness, reduction and recognition of a code")
    p.add_argument("file")
    p = leaf(code, "de", _cmd_code_de, "code de",
             help="the doubled even-weight code on 2n coordinates")
    p.add_argument("n", type=int)
    p = leaf(code, "equiv", _cmd_code_equiv, "code equiv",
             help="decide coordinate-permutation equivalence")
    p.add_argument("a")
    p.add_argument("b")
    p = leaf(code, "enumerate", _cmd_code_enumerate, "code enumerate",
             help="all codes with the given weight constraint, one per "
                  "permutation class")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--weights", choices=("4", "div4"), required=True)
    p.add_argument("--dim-min", type=int, required=True)
    p.add_argument("--dim-max", type=int, required=True)
    p.add_argument("--cache", default=None,
                   help="directory for the JSONL result cache")
    p = leaf(code, "recognize-de", _cmd_code_recognize_de,
             "code recognize-de",
             help="is the reduced code a doubled even-weight code?")
    p.add_argument("file")

    lattice = top.add_parser("lattice", parents=[common]).add_subparsers()
    p = leaf(lattice, "build", _cmd_lattice_build, "lattice build",
             help="Construction-A lattice of a code")
    p.add_argument("code_file")
    p.add_argument("--scaling", choices=lattices.SCALINGS,
                   required=True)
    p.add_argument("--out", default=None,
                   help="also write the lattice JSON to this file")
    p = leaf(lattice, "identify", _cmd_lattice_identify, "lattice identify",
             help="root system type and discriminant")
    p.add_argument("file")

    cover = top.add_parser("cover", parents=[common]).add_subparsers()
    p = leaf(cover, "invariants", _cmd_cover_invariants, "cover invariants",
             help="invariants of the 2^r-cover branched on m nodal curves")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--c2", type=int, default=None)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kodaira", choices=covers.KODAIRA, default="unknown")

    bound = top.add_parser("bound", parents=[common]).add_subparsers()
    p = leaf(bound, "isotropic", _cmd_bound_isotropic, "bound isotropic",
             help="minimum code rank for k nodal curves at Picard rank rho")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", type=int, required=True)
    p = leaf(bound, "miyaoka", _cmd_bound_miyaoka, "bound miyaoka",
             help="maximum node count from the orbifold BMY inequality")
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--c2", type=int, required=True)
    p = leaf(bound, "min-m", _cmd_bound_min_m, "bound min-m",
             help="minimum number of curves in the support at rank r")
    p.add_argument("--r", type=int, required=True)

    cl = top.add_parser("classify", parents=[common]).add_subparsers()
    p = leaf(cl, "involution", _cmd_classify_involution,
             "classify involution",
             help="case table for an involution with p_g = 0 and K^2 = 8 "
                  "or 9")
    p.add_argument("--k2", type=int, choices=(8, 9), required=True)
    p = leaf(cl, "fibers", _cmd_classify_fibers, "classify fibers",
             help="fiber multisets absorbing nodal curves in an Euler "
                  "budget")
    p.add_argument("--euler", type=int, required=True)
    p.add_argument("--nodes", type=int, required=True)
    leaf(cl, "kr-pairs", _cmd_classify_kr_pairs, "classify kr-pairs",
         help="feasible (k, r, m) triples for k = rho - 2 nodal curves")
    p = leaf(cl, "thm-mt", _cmd_classify_thm_mt, "classify thm-mt",
             help="feasibility of k = rho - 1 nodal curves on a rational "
                  "surface")
    p.add_argument("--rho", type=int, required=True)
    p = leaf(cl, "small-rho", _cmd_classify_small_rho, "classify small-rho",
             help="surfaces with k = rho - 2 nodal curves for rho <= 4")
    p.add_argument("--rho", type=int, required=True)

    solve = top.add_parser("solve", parents=[common]).add_subparsers()
    leaf(solve, "md", _cmd_solve_md, "solve md",
         help="positive solutions of d m = m + 2 d")

    return parser


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _emit(report: Dict[str, object], pretty: bool) -> None:
    if pretty:
        text = json.dumps(report, indent=2, sort_keys=False)
    else:
        text = json.dumps(report, sort_keys=False)
    sys.stdout.write(text + "\n")


def _error_report(command: str, inputs: Dict[str, object],
                  message: str) -> Dict[str, object]:
    return {
        "command": command,
        "inputs": inputs,
        "outputs": {},
        "derivation": [],
        "error": message,
        "status": "error",
    }


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, execute one subcommand, print one JSON report."""
    args_list = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(args_list)
    except _UsageError as exc:
        _emit(_error_report(" ".join(args_list[:2]), {}, str(exc)),
              pretty=False)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if not hasattr(args, "handler"):
        _emit(
            _error_report(
                " ".join(args_list[:2]), {},
                "missing subcommand (see --help)",
            ),
            pretty=getattr(args, "pretty", False),
        )
        return 1
    pretty = getattr(args, "pretty", False)
    try:
        inputs, outputs, steps, status = args.handler(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        inputs = {
            name: value for name, value in vars(args).items()
            if name not in ("handler", "command", "pretty", "group")
        }
        _emit(_error_report(args.command, inputs, str(exc)), pretty)
        return 1
    report = {
        "command": args.command,
        "inputs": inputs,
        "outputs": outputs,
        "derivation": [s.as_dict() for s in steps],
        "status": status,
    }
    _emit(report, pretty)
    return 0 if status == "ok" else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
