"""Command-line frontend.

Subcommands: gen (families, products, joins), compute (certified
solvers), srg (strong resolving graph emission), oracle (exhaustive
baseline), check (law suites).  Graphs travel as edge-list files:
optional '#' comment lines, one "n m" header line, then m lines "u v"
with 0 <= u < v < n; writers emit edges sorted lexicographically.

Exit codes: 0 success, 1 law failure, 2 parse or input error,
3 disconnected input where connectivity is required, 4 size cap hit or
input too large to build, 141 (128 + SIGPIPE) standard output closed by
its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .errors import (
    DisconnectedError,
    GenposError,
    SizeError,
    SpecError,
)
from .families import PRODUCT_KINDS, FamilySpec, generate, integer, join, product
from .graphs import Graph
from .laws import SUITES, run_suite
from .position import VARIANTS, brute_force, solve
from .srg import strong_resolving_graph

_EXIT_LAW_FAILURE = 1
_EXIT_INPUT = 2
_EXIT_DISCONNECTED = 3
_EXIT_SIZE = 4
_EXIT_BROKEN_PIPE = 141

# display order of the variants for --invariant all
_ALL_ORDER = ("gp", "outer", "total", "dual")


def _two_integers(path: str, what: str, line: str) -> tuple:
    try:
        # a count other than two fails to unpack, which is a ValueError too
        first, second = map(integer, line.split())
    except ValueError as exc:
        raise SpecError(f"{path}: {what} must be two integers, got {line!r}") from exc
    return first, second


def read_graph(path: str) -> Graph:
    """Parse an edge-list file; its counts and vertices are ASCII decimal
    integers.

    Every command that reads a graph needs it connected, so a file with
    more than m + 1 vertices fails before any graph is built.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path}: not UTF-8 text, byte {exc.start}") from exc
    lines = [
        line.strip()
        for line in raw.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise SpecError(f"{path}: no data lines")
    n, m = _two_integers(path, "header 'n m'", lines[0])
    if n < 0 or m < 0:
        raise SpecError(f"{path}: negative count in header")
    if len(lines) - 1 != m:
        raise SpecError(f"{path}: header says {m} edges, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        u, v = _two_integers(path, "edge 'u v'", line)
        if not (0 <= u < v < n):
            raise SpecError(f"{path}: edge {line!r} violates 0 <= u < v < n={n}")
        edges.append((u, v))
    if n > m + 1:
        raise DisconnectedError(
            f"{path}: {m} edges cannot make {n} vertices connected"
        )
    try:
        return Graph(n, edges)
    except (GenposError, IndexError) as exc:
        raise SpecError(f"{path}: {exc}") from exc


def format_graph(G: Graph) -> str:
    lines = [f"{G.n} {G.m}"]
    lines += [f"{u} {v}" for u, v in G.edges()]
    return "\n".join(lines) + "\n"


def write_graph(G: Graph, path: str | None) -> None:
    text = format_graph(G)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SpecError(f"cannot write {path}: {exc}") from exc


def _cmd_gen(args) -> int:
    if args.family:
        G, _ = generate(FamilySpec.parse(args.family))
    else:
        if not (args.a and args.b):
            raise SpecError("product and join generation need both -a and -b")
        A, _ = generate(FamilySpec.parse(args.a))
        B, _ = generate(FamilySpec.parse(args.b))
        G = join(A, B) if args.join else product(A, B, args.product)
    write_graph(G, args.output)
    return 0


def _emit_values(G: Graph, args, solver) -> int:
    single = args.invariant != "all"
    start = time.perf_counter()
    certs = [solver(G, v) for v in ((args.invariant,) if single else _ALL_ORDER)]
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if args.json and not single:
        print(json.dumps({cert.variant: cert.value for cert in certs}))
    elif args.json:
        (cert,) = certs
        print(
            json.dumps(
                {
                    "graph": {"n": G.n, "m": G.m},
                    "invariant": cert.variant,
                    "value": cert.value,
                    "witness": sorted(cert.witness),
                    "method": cert.method,
                    "elapsed_ms": round(elapsed_ms, 3),
                }
            )
        )
    else:
        for cert in certs:
            print(cert.value if args.quiet else f"{cert.variant} = {cert.value}")
            if single and not args.quiet:
                print(f"witness = {' '.join(map(str, sorted(cert.witness)))}")
                print(f"method = {cert.method}")
    return 0


def _cmd_compute(args) -> int:
    return _emit_values(read_graph(args.input), args, solve)


def _cmd_oracle(args) -> int:
    oracle = functools.partial(brute_force, max_n=args.max_n)
    return _emit_values(read_graph(args.input), args, oracle)


def _cmd_srg(args) -> int:
    write_graph(strong_resolving_graph(read_graph(args.input)), args.output)
    return 0


def _cmd_check(args) -> int:
    start = time.perf_counter()
    reports = run_suite(args.suite, args.seed)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    failures = [r for r in reports if not r.passed]
    if args.json:
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "seed": args.seed,
                    "checks": len(reports),
                    "failures": len(failures),
                    "reports": [r.to_dict() for r in reports],
                    "elapsed_ms": round(elapsed_ms, 3),
                }
            )
        )
    else:
        for r in reports:
            if r.passed:
                print(f"PASS {r.law} @ {r.instance}")
            else:
                print(f"FAIL {r.law} @ {r.instance}: expected {r.expected}; {r.actual}")
                if r.counterexample is not None:
                    print(f"  counterexample: {json.dumps(r.counterexample)}")
        print(f"{len(reports)} checks, {len(failures)} failures")
    return _EXIT_LAW_FAILURE if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genpos",
        description="exact general position invariants of connected graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a named family, product, or join")
    kind = gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--family", metavar="SPEC", help="family spec, e.g. theta:2,3,3")
    kind.add_argument(
        "--product",
        choices=PRODUCT_KINDS,
        help="product of the -a and -b graphs",
    )
    kind.add_argument(
        "--join", action="store_true", help="join of the -a and -b graphs"
    )
    gen.add_argument("-a", metavar="SPEC", help="first factor family spec")
    gen.add_argument("-b", metavar="SPEC", help="second factor family spec")
    gen.add_argument("-o", "--output", metavar="FILE", help="write here, default stdout")
    gen.set_defaults(func=_cmd_gen)

    compute = sub.add_parser("compute", help="solve one invariant with certificate")
    compute.set_defaults(func=_cmd_compute)

    srg = sub.add_parser("srg", help="emit the strong resolving graph")
    srg.add_argument("-i", "--input", required=True, metavar="FILE")
    srg.add_argument("-o", "--output", metavar="FILE", help="write here, default stdout")
    srg.set_defaults(func=_cmd_srg)

    oracle = sub.add_parser("oracle", help="exhaustive subset-enumeration baseline")
    oracle.set_defaults(func=_cmd_oracle)
    for cmd in (compute, oracle):
        cmd.add_argument("--invariant", required=True, choices=VARIANTS + ("all",))
        cmd.add_argument("-i", "--input", required=True, metavar="FILE")
        if cmd is oracle:
            cmd.add_argument("--max-n", type=integer, default=18, dest="max_n")
        cmd.add_argument("--json", action="store_true")
        cmd.add_argument("--quiet", action="store_true", help="value only")

    check = sub.add_parser("check", help="run a law suite")
    check.add_argument("--suite", required=True, choices=SUITES + ("all",))
    check.add_argument("--seed", type=integer, default=0)
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    try:
        code = args.func(args)
        # a reader that left shows here, not in the flush at exit
        sys.stdout.flush()
        return code
    except GenposError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DisconnectedError):
            return _EXIT_DISCONNECTED
        return _EXIT_SIZE if isinstance(exc, SizeError) else _EXIT_INPUT
    except (MemoryError, OverflowError) as exc:
        # a size such as edgeless:2**62, refused before anything is built
        print(f"error: input too large to build: {type(exc).__name__}", file=sys.stderr)
        return _EXIT_SIZE
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at exit
        # raises no second error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
