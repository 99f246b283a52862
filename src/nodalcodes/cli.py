"""Command-line front end.

Every subcommand prints exactly one JSON report to standard output:

    {"command": ..., "inputs": ..., "outputs": ...,
     "derivation": [{"claim": ..., "reference": ..., "values": ...}, ...],
     "status": "ok" | "contradiction" | "error"}

Exit code 0 means ok, 2 means a successfully derived impossibility (the
mathematics says "no such surface/involution"), 1 means tool failure.  A
status of "error" always comes with empty outputs and a top-level "error"
message.  The one output that is not a report is `--help`, at any level:
argparse's usage text, with exit code 0.

Each subcommand is declared once, by the `_command` decorator on its
handler: its name, its help text and its argparse arguments.
`_build_parser` builds every group and leaf parser from that table.  A
handler returns its outputs, a library record or a dict, and a status.
`run` turns that into the report: the outputs as JSON values, with their
top-level "derivation" entry, the steps the record carries, moved out to
be the report's trail.  A report's inputs are the parsed arguments, minus
the dispatch fields, for ok and error reports alike; when parsing fails
(a bad value, an unknown group, a missing leaf) they are {"argv": [...]}.

`code enumerate` optionally persists its results as a JSONL cache: a stamp
line (package version, algorithm id, code count), then one JSON object per
code.  A rerun with identical inputs reuses the file only if the stamp
matches and every line is the serialization of a canonical code of the
requested length, dimension range and weight rule, in order; otherwise it
recomputes and replaces the file atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

import nodalcodes

from . import KODAIRA, MAX_LENGTH, MAX_ROOT_RANK, SCALINGS, __version__

if TYPE_CHECKING:
    from .gf2 import BinaryCode

__all__ = ["run", "main"]

# what a handler returns: outputs (a library record or a dict), status
Result = Tuple[object, str]
Handler = Callable[[argparse.Namespace], Result]

# "group leaf" -> (handler, help, add_argument parameters), in --help order.
# Handlers reach nodalcodes.<layer>, so a request loads only the layers it
# calls, and a tracer that rebinds a function in its layer sees every call.
_COMMANDS: Dict[str, Tuple[Handler, str, tuple]] = {}


def _command(name: str, help: str, *arguments: tuple):  # noqa: A002
    """Register the decorated handler as subcommand `name`."""

    def register(handler: Handler) -> Handler:
        _COMMANDS[name] = (handler, help, arguments)
        return handler

    return register


def _arg(*flags: str, **kwargs: object) -> tuple:
    """The parameters of one add_argument call."""
    return flags, kwargs


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


def _plain(value: object) -> object:
    """value with every record in it, at any depth, as a dict of its
    fields, and every tuple as a list: the shape its JSON has."""
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _code_dict(code: BinaryCode) -> Dict[str, object]:
    return {
        "length": code.length,
        "dim": code.dim,
        "generators": [
            nodalcodes.gf2.word_to_string(g, code.length)
            for g in code.generators
        ],
        "weight_enumerator": {
            str(w): n
            for w, n in nodalcodes.gf2.weight_enumerator(code).items()
        },
    }


def _load_code(path: str) -> BinaryCode:
    return nodalcodes.gf2.parse_code(Path(path).read_text())


def _cache_lines(codes: Sequence[BinaryCode]) -> List[str]:
    return [
        json.dumps(_code_dict(c), sort_keys=True, separators=(",", ":"))
        for c in codes
    ]


# names the enumeration and canonical-form definitions a cache file holds
_CACHE_ALGORITHM = "enumerate_codes/aut-orbits/profile-refined-canonical"


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
        ok = nodalcodes.gf2._weight_rule(args.length, args.weights,
                                         args.dim_min, args.dim_max)
        previous: Tuple[int, Tuple[int, ...]] = (-1, ())
        for line in lines:
            row = json.loads(line)
            code = nodalcodes.gf2.make_code(row["generators"], args.length)
            key = (code.dim, code.generators)
            # once the line is the code's own, its weights are the code's
            if (_cache_lines([code]) != [line]
                    or not args.dim_min <= code.dim <= args.dim_max
                    or key <= previous
                    or nodalcodes.gf2.canonical_form(code)[0] != code
                    or not all(ok(int(h)) for h in row["weight_enumerator"]
                               if h != "0")):
                return None
            previous = key
    # arrays nested past the recursion limit raise RecursionError
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
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


# ---------------------------------------------------------------------------
# subcommand handlers (each returns outputs, status)
# ---------------------------------------------------------------------------


@_command("code analyze",
          "weights, evenness, reduction and recognition of a code",
          _arg("file"))
def _code_analyze(args: argparse.Namespace) -> Result:
    code = _load_code(args.file)
    reduced, support = nodalcodes.gf2.reduce(code)
    outputs = {
        **_code_dict(code),
        "is_even": nodalcodes.gf2.is_even(code),
        "is_doubly_even": nodalcodes.gf2.is_doubly_even(code),
        "reduced_length": reduced.length,
        "reduced_support": support,
        "de_n": nodalcodes.gf2.recognize_de(code),
    }
    return outputs, "ok"


@_command("code de", "the doubled even-weight code on 2n coordinates",
          _arg("n", type=int))
def _code_de(args: argparse.Namespace) -> Result:
    return _code_dict(nodalcodes.gf2.de(args.n)), "ok"


@_command("code equiv", "decide coordinate-permutation equivalence",
          _arg("a"), _arg("b"))
def _code_equiv(args: argparse.Namespace) -> Result:
    a = _load_code(args.a)
    b = _load_code(args.b)
    perm = nodalcodes.gf2.equivalent(a, b)
    return {"equivalent": perm is not None, "permutation": perm}, "ok"


@_command("code enumerate",
          "all codes with the given weight constraint, one per permutation "
          "class",
          _arg("--length", type=int, required=True),
          _arg("--weights", choices=("4", "div4"), required=True),
          _arg("--dim-min", type=int, required=True),
          _arg("--dim-max", type=int, required=True),
          _arg("--cache", default=None,
               help="directory for the JSONL result cache"))
def _code_enumerate(args: argparse.Namespace) -> Result:
    cache_file: Optional[Path] = None
    lines: Optional[List[str]] = None
    if args.cache:
        name = (
            f"enumerate_len{args.length}_w{args.weights}"
            f"_dim{args.dim_min}-{args.dim_max}.jsonl"
        )
        cache_file = Path(args.cache) / name
        lines = _read_cache(cache_file, args)
    if lines is None:
        codes = nodalcodes.gf2.enumerate_codes(
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
    return outputs, "ok"


@_command("code recognize-de",
          "is the reduced code a doubled even-weight code?", _arg("file"))
def _code_recognize_de(args: argparse.Namespace) -> Result:
    n = nodalcodes.gf2.recognize_de(_load_code(args.file))
    return {"n": n, "essentially_de": n is not None}, "ok"


@_command("lattice build", "Construction-A lattice of a code",
          _arg("code_file"),
          _arg("--scaling", choices=SCALINGS, required=True),
          _arg("--out", default=None,
               help="also write the lattice JSON to this file"))
def _lattice_build(args: argparse.Namespace) -> Result:
    code = _load_code(args.code_file)
    lat = nodalcodes.lattices.construction_a(code, args.scaling)
    text = nodalcodes.lattices.lattice_to_json(lat)
    if args.out:
        Path(args.out).write_text(text + "\n")
    outputs = json.loads(text)
    outputs["out"] = args.out
    return outputs, "ok"


@_command("lattice identify", "root system type and discriminant",
          _arg("file", help=f"lattice JSON; a rank above {MAX_ROOT_RANK}, "
                            "the root search's limit, is an error"))
def _lattice_identify(args: argparse.Namespace) -> Result:
    lat = nodalcodes.lattices.lattice_from_json(Path(args.file).read_text())
    outputs = {**nodalcodes.lattices.identify_root_system(lat)._asdict(),
               "discriminant": str(nodalcodes.lattices.discriminant(lat))}
    return outputs, "ok"


@_command("cover invariants",
          "invariants of the 2^r-cover branched on m nodal curves",
          _arg("--chi", type=int, required=True),
          _arg("--k2", type=int, required=True),
          _arg("--r", type=int, required=True,
               help="rank of the cover group, 0 <= r <= m"),
          _arg("--m", type=int, required=True,
               help=f"number of branch curves, 0 <= m <= {MAX_LENGTH}"),
          _arg("--kodaira", choices=KODAIRA, default="unknown"))
def _cover_invariants(args: argparse.Namespace) -> Result:
    base = nodalcodes.covers.SurfaceInvariants(
        chi=args.chi, K2=args.k2, kodaira=args.kodaira
    )
    spec = nodalcodes.covers.CoverSpec(r=args.r, m=args.m)
    return nodalcodes.covers.cover_invariants(base, spec), "ok"


@_command("bound isotropic",
          "minimum code rank for k nodal curves at Picard rank rho",
          _arg("--k", type=int, required=True),
          _arg("--rho", type=int, required=True))
def _bound_isotropic(args: argparse.Namespace) -> Result:
    bound = nodalcodes.covers.isotropic_bound(args.k, args.rho)
    step = nodalcodes.covers.Step(
        "an isotropic subspace of a rank-rho quadratic space has "
        "dimension at most rho // 2, so the code rank is at least "
        "k - rho // 2",
        "isotropic dimension bound",
        {"k": args.k, "rho": args.rho, "bound": bound},
    )
    return {"bound": bound, "derivation": [step]}, "ok"


@_command("bound miyaoka",
          "maximum node count from the orbifold BMY inequality",
          _arg("--k2", type=int, required=True),
          _arg("--c2", type=int, required=True))
def _bound_miyaoka(args: argparse.Namespace) -> Result:
    return nodalcodes.covers.miyaoka_max_nodes(args.k2, args.c2), "ok"


@_command("bound min-m",
          "minimum number of curves in the support at rank r",
          _arg("--r", type=int, required=True))
def _bound_min_m(args: argparse.Namespace) -> Result:
    value = nodalcodes.covers.min_m_for_r(args.r)
    step = nodalcodes.covers.Step(
        "each of the m covered coordinates lies in 2^(r-1) words and "
        "each of the 2^r - 1 nonzero words has weight >= 4, so "
        "m >= 8 (2^r - 1) / 2^r",
        "weight counting in the rank-r cover code",
        {"r": args.r, "min_m": value},
    )
    return {"min_m": value, "derivation": [step]}, "ok"


@_command("classify involution",
          "case table for an involution with p_g = 0 and K^2 = 8 or 9",
          _arg("--k2", type=int, choices=(8, 9), required=True))
def _classify_involution(args: argparse.Namespace) -> Result:
    cases = nodalcodes.classify.classify_involution(args.k2)
    steps = [s for case in cases for s in case.derivation]
    status = (
        "contradiction"
        if all(c.label == "contradiction" for c in cases)
        else "ok"
    )
    return {"cases": cases, "derivation": steps}, status


@_command("classify fibers",
          "fiber multisets absorbing nodal curves in an Euler budget",
          _arg("--euler", type=int, required=True),
          _arg("--nodes", type=int, required=True))
def _classify_fibers(args: argparse.Namespace) -> Result:
    multisets = nodalcodes.classify.fiber_budget(args.euler, args.nodes)
    step = nodalcodes.classify.Step(
        "fiber Euler numbers sum to at most the total while nodal "
        "capacities sum to exactly the required nodes",
        "Euler number budget of a relatively minimal elliptic fibration",
        {"euler": args.euler, "nodes": args.nodes, "count": len(multisets)},
    )
    outputs = {
        "count": len(multisets),
        "multisets": [[f.kind for f in ms] for ms in multisets],
        "derivation": [step],
    }
    return outputs, "ok"


@_command("classify kr-pairs",
          "feasible (k, r, m) triples for k = rho - 2 nodal curves")
def _classify_kr_pairs(args: argparse.Namespace) -> Result:
    pairs = sorted(nodalcodes.classify.feasible_kr_pairs())
    step = nodalcodes.classify.Step(
        "exhaustive enumeration of all-weight-4 codes of length "
        "k = rho - 2 for 5 <= rho <= 10 under the isotropic rank "
        "bound and m < 8",
        "code enumeration",
        {"pairs": pairs},
    )
    return {"pairs": pairs, "derivation": [step]}, "ok"


@_command("classify thm-mt",
          "feasibility of k = rho - 1 nodal curves on a rational surface",
          _arg("--rho", type=int, required=True))
def _classify_thm_mt(args: argparse.Namespace) -> Result:
    row = nodalcodes.classify.saturated_node_sweep(args.rho)
    return row, "ok" if row.survives else "contradiction"


@_command("classify small-rho",
          "surfaces with k = rho - 2 nodal curves for rho <= 4",
          _arg("--rho", type=int, required=True))
def _classify_small_rho(args: argparse.Namespace) -> Result:
    return {"cases": nodalcodes.classify.small_rho_cases(args.rho)}, "ok"


@_command("solve md", "positive solutions of d m = m + 2 d")
def _solve_md(args: argparse.Namespace) -> Result:
    sols = nodalcodes.classify.solve_md()
    step = nodalcodes.classify.Step(
        "d m = m + 2 d rewrites as (d - 1)(m - 2) = 2; the two "
        "factorizations of 2 give all positive solutions",
        "pencil Diophantine equation",
        {"solutions": [[s.m, s.d] for s in sols]},
    )
    return {"solutions": sols, "derivation": [step]}, "ok"


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
    groups: Dict[str, argparse._SubParsersAction] = {}
    for command, (handler, text, arguments) in _COMMANDS.items():
        group, name = command.split()
        if group not in groups:
            groups[group] = top.add_parser(
                group, parents=[common]).add_subparsers()
        p = groups[group].add_parser(name, parents=[common], help=text)
        p.set_defaults(handler=handler, command=command)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return parser


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


# the exit code of each report status
_EXIT = {"ok": 0, "error": 1, "contradiction": 2}


def _render(report: Dict[str, object], pretty: bool) -> str:
    return json.dumps(report, indent=2 if pretty else None) + "\n"


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, execute one subcommand, print one JSON report."""
    args_list = list(sys.argv[1:] if argv is None else argv)
    # until the arguments parse, the inputs are the raw argv
    head = {"command": " ".join(args_list[:2]), "inputs": {"argv": args_list}}
    pretty = False
    try:
        args = _build_parser().parse_args(args_list)
        pretty = getattr(args, "pretty", False)
        if not hasattr(args, "handler"):
            raise _UsageError("missing subcommand (see --help)")
        # the parsed arguments, minus the fields that only dispatch
        head = {"command": args.command, "inputs": {
            name: value for name, value in vars(args).items()
            if name not in ("handler", "command", "pretty", "group")
        }}
        outputs, status = args.handler(args)
        outputs = _plain(outputs)
        trail = outputs.pop("derivation", [])
        # serialized before anything is written: an int too long for str()
        # raises ValueError here, and the request ends as an error report
        text = _render({**head, "outputs": outputs, "derivation": trail,
                        "status": status}, pretty)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (_UsageError, ValueError, OSError) as exc:
        status = "error"
        text = _render({**head, "outputs": {}, "derivation": [],
                        "error": str(exc), "status": status}, pretty)
    sys.stdout.write(text)
    return _EXIT[status]


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
