"""Command-line interface: count, enumerate, biject, table, verify.

Data goes to stdout (or ``--out <file>``); diagnostics go to stderr.
Exit codes are stable: 0 success, 2 usage error, 3 resource limit,
4 domain violation (the violated predicate is named), 5 verification
failure.  The ``PERMPATHS_WORKERS`` environment variable bounds oracle
parallelism; results do not depend on it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import re
import sys
from typing import Sequence, TextIO

from . import bijections as bij
from . import formulas, oracle, verify
from .errors import (
    DomainError,
    InvalidInputError,
    ResourceLimitError,
    UnsupportedClassError,
    VerificationError,
)
from .paths import parse_path
from .permutations import format_permutation, parse_permutation

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_DOMAIN = 4
EXIT_VERIFY = 5

# count and table sizes; p132-1 is the first family whose count passes
# Python's 4,300-digit limit on integer-to-string conversion, at n = 7,148
MAX_COUNT_N = 5000

FILTER_PRESETS = {"last2up": "last_inc(2)"}


# ---------------------------------------------------------------------------
# filter mini-grammar: conjunctions of five fixed atoms joined by &&


@dataclasses.dataclass(frozen=True)
class _Atom:
    kind: str
    value: object  # an oracle condition, or the bound of a height atom

    def perm_only(self) -> bool:
        return self.kind != "height"


# kind, syntax, and what the matched groups compile to
_ATOM_RES = [
    (
        "pattern",
        re.compile(r"pattern\(\s*([0-9][0-9 ,]*?)\s*\)\s*==\s*(\d+)\s*$"),
        lambda letters, k: oracle.PatternCount(parse_permutation(letters), int(k)),
    ),
    ("first", re.compile(r"first\s*>=\s*(\d+)\s*$"), lambda k: oracle.FirstGe(int(k))),
    ("last_inc", re.compile(r"last_inc\(\s*(\d+)\s*\)\s*$"), lambda k: oracle.LastRunIncreasing(int(k))),
    ("pos_of_max", re.compile(r"pos_of_max\s*<=\s*(\d+)\s*$"), lambda k: oracle.MaxPosLe(int(k))),
    ("height", re.compile(r"height\s*<=\s*(\d+)\s*$"), int),
]


def parse_filter(text: str) -> tuple[_Atom, ...]:
    """Parse a conjunction like ``"pattern(2 1)==1 && first>=2"``.

    Permutation atoms compile to the oracle's conditions; a height atom
    keeps its bound.  Raises InvalidInputError naming the character
    position where parsing fails.
    """
    atoms = []
    offset = 0
    remaining = text
    while True:
        cut = remaining.find("&&")
        piece = remaining if cut < 0 else remaining[:cut]
        start = offset + len(piece) - len(piece.lstrip())
        chunk = piece.strip()
        if not chunk:
            raise InvalidInputError(f"empty filter term at position {start}")
        for kind, rx, compile_atom in _ATOM_RES:
            m = rx.match(chunk)
            if m:
                break
        else:
            raise InvalidInputError(
                f"cannot parse filter at position {start}: {chunk!r}"
            )
        atoms.append(_Atom(kind, compile_atom(*m.groups())))
        if cut < 0:
            return tuple(atoms)
        offset += cut + 2
        remaining = remaining[cut + 2 :]


# ---------------------------------------------------------------------------
# subcommand handlers (each returns an exit code)


def _known_family(family: str, n: int) -> bool:
    """Whether ``family`` names a formula, listing the known ones on stderr
    if not; raises InvalidInputError when ``n`` is below 1 and
    ResourceLimitError when it is over ``MAX_COUNT_N``."""
    if family not in formulas.FORMULAS:
        print(f"unknown family {family!r}; known: {', '.join(sorted(formulas.FORMULAS))}", file=sys.stderr)
        return False
    if n < 1:
        raise InvalidInputError(f"n must be a positive integer: {n!r}")
    if n > MAX_COUNT_N:
        raise ResourceLimitError(f"size {n} over cap {MAX_COUNT_N}")
    return True


def _cmd_count(args, out: TextIO) -> int:
    if not _known_family(args.family, args.n):
        return EXIT_USAGE
    if args.mode in ("formula", "both"):
        fv = formulas.count(args.family, args.n)
    if args.mode in ("oracle", "both"):
        ov = oracle.oracle_count(args.family, args.n)
    if args.mode == "formula":
        print(fv, file=out)
    elif args.mode == "oracle":
        print(ov, file=out)
    else:
        verdict = "match" if fv == ov else "MISMATCH"
        print(f"{fv} / {ov} / {verdict}", file=out)
        if fv != ov:
            return EXIT_VERIFY
    return EXIT_OK


def _biject_registry():
    # name -> (parse input, forward, inverse, render image)
    def decomp_out(result):
        if isinstance(result, tuple) and len(result) == 2:
            rho, other = result
            if isinstance(other, int):
                return json.dumps({"rho": list(rho), "param": other})
            return json.dumps({"rho": list(rho), "sigma": list(other)})
        return json.dumps({"rho": list(result)})

    return {
        "kratt": (parse_permutation, bij.records_to_dyck, bij.dyck_to_records, str),
        "kratt-inv": (parse_path, bij.dyck_to_records, bij.records_to_dyck, format_permutation),
        "phi": (parse_permutation, None, None, format_permutation),  # wired up with i below
        "lemma11": (parse_permutation, bij.split_adjacent_132, lambda rk: bij.join_adjacent_132(*rk), decomp_out),
        "lemma12": (parse_permutation, bij.split_boundary_132, bij.join_boundary_132, decomp_out),
        "prop14": (parse_permutation, bij.split_one132, lambda rs: bij.join_one132(*rs), decomp_out),
        "one321": (parse_permutation, bij.split_one321, lambda rs: bij.join_one321(*rs), decomp_out),
        "two321-b": (parse_permutation, bij.split_two321_shared, lambda rs: bij.join_two321_shared(*rs), decomp_out),
        "two321-k": (parse_permutation, bij.split_two321_distinct, lambda rs: bij.join_two321_distinct(*rs), decomp_out),
    }


def _cmd_biject(args, out: TextIO) -> int:
    registry = _biject_registry()
    parse_input, forward, inverse, render = registry[args.name]
    if args.name == "phi":
        if args.i is None:
            raise InvalidInputError("biject phi needs --i (how many tail letters)")
        forward = lambda p: bij.tail_rotate(p, args.i)
        inverse = lambda q: bij.tail_rotate_inverse(q, args.i)
    elif args.i is not None:
        raise InvalidInputError(f"--i only applies to phi, not {args.name}")
    obj = parse_input(args.input)
    image = forward(obj)
    print(render(image), file=out)
    if args.roundtrip:
        back = inverse(image)
        if back != obj:
            raise VerificationError(f"roundtrip failed: got {back!r}")
        print("roundtrip: ok", file=sys.stderr)
    return EXIT_OK


def _cmd_table(args, out: TextIO) -> int:
    if not _known_family(args.family, args.nmax):
        return EXIT_USAGE
    rows = []
    for n in range(1, args.nmax + 1):
        fv = formulas.count(args.family, n)
        if n <= oracle.MAX_PERM_N:
            ov = oracle.oracle_count(args.family, n)
            rows.append((n, fv, ov, fv == ov))
        else:
            rows.append((n, fv, None, None))
    if args.format == "json":
        payload = [
            {"n": n, "family": args.family, "formula": fv, "oracle": ov, "match": mt}
            for n, fv, ov, mt in rows
        ]
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "family", "formula", "oracle", "match"])
        for n, fv, ov, mt in rows:
            writer.writerow([
                n,
                args.family,
                fv,
                "" if ov is None else ov,
                "" if mt is None else ("true" if mt else "false"),
            ])
    if any(mt is False for _, _, _, mt in rows):
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_verify(args, out: TextIO) -> int:
    results = verify.run_suite(args.suite, args.nmax)
    print(verify.format_results(results), file=out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def _cmd_enumerate(args, out: TextIO) -> int:
    parts = []
    if args.filter_preset:
        parts.append(FILTER_PRESETS[args.filter_preset])
    if args.filter:
        parts.append(args.filter)
    atoms = parse_filter(" && ".join(parts)) if parts else ()
    if args.kind == "perm":
        bad = [a for a in atoms if not a.perm_only()]
        if bad:
            raise InvalidInputError(
                f"filter atom {bad[0].kind!r} applies to paths; use --kind dyck"
            )
        perms = oracle.stream_perms(args.n, [a.value for a in atoms])
        rows = map(format_permutation, perms)
    else:
        bad = [a for a in atoms if a.perm_only()]
        if bad:
            raise InvalidInputError(
                f"filter atom {bad[0].kind!r} applies to permutations; use --kind perm"
            )
        height = min((a.value for a in atoms), default=None)
        rows = oracle.enumerate_paths(args.n, args.n, lo=0, hi=height)
    for row in rows:
        out.write(row + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permpaths",
        description="Exact counts, enumerations, and bijections for "
        "pattern-restricted permutations and lattice paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", metavar="FILE", help="write data there instead of stdout")

    p = sub.add_parser("count", help="count one family at one size")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("formula", "oracle", "both"), default="formula")
    add_out(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("enumerate", help="stream matching objects one per line")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--filter", help="conjunction of atoms joined by &&")
    p.add_argument("--filter-preset", choices=sorted(FILTER_PRESETS))
    p.add_argument("--kind", choices=("perm", "dyck"), default="perm")
    add_out(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("biject", help="apply a named bijection to one object")
    p.add_argument("--name", required=True, choices=sorted(_biject_registry()))
    p.add_argument("--input", required=True, help="permutation letters or a UD path")
    p.add_argument("--i", type=int, help="tail width (phi only)")
    p.add_argument("--roundtrip", action="store_true", help="also apply the inverse and check identity")
    add_out(p)
    p.set_defaults(handler=_cmd_biject)

    p = sub.add_parser("table", help="tabulate formula vs oracle over a range of n")
    p.add_argument("--family", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_out(p)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument(
        "--suite", required=True, choices=(*verify.SUITE_NAMES, "all")
    )
    p.add_argument("--nmax", type=int, required=True)
    add_out(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            with open(args.out, "w") as out:
                return args.handler(args, out)
        return args.handler(args, sys.stdout)
    except (InvalidInputError, UnsupportedClassError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except DomainError as e:
        print(f"domain violation [{e.predicate}]: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
