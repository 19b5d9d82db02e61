"""Command-line front end: compute structure maps, emit tables, run verifiers.

Exit codes: 0 on success / all checks passing, 1 when any verification fails,
2 on usage errors.  JSON output follows the canonical schema in jsonio and is
byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import hopf0, hopfp, jsonio, restricted
from .scalars import is_prime
from .series import Deformation, t_label
from .uwitt import Element


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittq",
        description="Exact structure maps and identity verification for the "
        "quantized Witt algebra, in characteristic 0 and mod p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, char=True, k=False, order=True, t=True):
        if char:
            sp.add_argument("--char", choices=["0", "p"], required=True, help="characteristic")
        sp.add_argument("--i", type=int, required=True, help="deformation direction i")
        if k:
            sp.add_argument("--k", type=int, required=True, help="generator index k")
        sp.add_argument("--p", type=int, help="odd prime (characteristic p only)")
        if order:
            sp.add_argument("--order", type=int, help="truncation order (characteristic 0 only, default 4)")
        if t:
            sp.add_argument("--t", default=None, help="t specialization: residue or 'symbolic' (characteristic p only)")
        sp.add_argument("--format", choices=["text", "json"], default="text")
        sp.add_argument("--out", help="output path (default stdout)")

    add_common(sub.add_parser("coproduct", help="deformed coproduct of one generator"), k=True)
    add_common(sub.add_parser("antipode", help="deformed antipode of one generator"), k=True)
    add_common(sub.add_parser("counit", help="counit of one generator"), k=True, order=False, t=False)
    add_common(sub.add_parser("twist", help="the twisting element (characteristic 0)"), char=False)
    cob = sub.add_parser("cobracket", help="order-t cobracket of one generator (characteristic 0)")
    cob.add_argument("--i", type=int, required=True)
    cob.add_argument("--k", type=int, required=True)
    cob.add_argument("--format", choices=["text", "json"], default="text")
    cob.add_argument("--out", help="output path (default stdout)")

    tab = sub.add_parser("tables", help="emit the full coproduct/antipode/counit tables for (p, i)")
    tab.add_argument("--p", type=int, required=True)
    tab.add_argument("--i", type=int, required=True)
    tab.add_argument("--out", help="output path (default stdout)")

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument("--char", choices=["0", "p"], required=True)
    ver.add_argument("--i", type=int, help="deformation direction (or use --all-i in char p)")
    ver.add_argument("--all-i", action="store_true", help="sweep every nonzero i mod p")
    ver.add_argument("--p", type=int, help="odd prime (characteristic p only)")
    ver.add_argument("--order", type=int, help="truncation order (characteristic 0 only, default 4)")
    ver.add_argument("--k-min", type=int, default=-3)
    ver.add_argument("--k-max", type=int, default=3)
    ver.add_argument("--t", default=None, help="'symbolic', a residue, or 'all' (characteristic p only)")
    ver.add_argument("--format", choices=["text", "json"], default="text")
    ver.add_argument("--out", help="output path (default stdout)")
    return parser


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_char0(parser, args):
    if args.p is not None:
        parser.error("--p only applies in characteristic p")
    if args.i == 0:
        parser.error("i must be nonzero")
    if getattr(args, "t", None) not in (None, "symbolic"):
        parser.error("--t only applies in characteristic p")
    order = getattr(args, "order", None)
    order = order if order is not None else 4
    if order < 0:
        parser.error("--order must be >= 0")
    return Deformation(0, order, args.i)


def _require_prime(parser, args):
    if getattr(args, "order", None) is not None:
        parser.error("--order only applies in characteristic 0")
    if args.p is None:
        parser.error("characteristic p requires --p")
    if not is_prime(args.p) or args.p == 2:
        parser.error(f"--p must be an odd prime, got {args.p}")


def _t_values(parser, args, allow_all: bool = False) -> list:
    """The t modes --t asks for at the prime --p: [None] for symbolic t (the
    default), one residue, or, where allow_all is set, symbolic t and every
    residue for 'all'."""
    raw, p = getattr(args, "t", None), args.p
    if raw in (None, "symbolic"):
        return [None]
    if allow_all and raw == "all":
        return [None] + list(range(p))
    try:
        return [int(raw) % p]
    except ValueError:
        modes = "'symbolic', 'all' or an integer" if allow_all else "'symbolic' or an integer"
        parser.error(f"--t must be {modes}, got {raw!r}")


def _require_charp(parser, args):
    _require_prime(parser, args)
    if args.i % args.p == 0:
        parser.error("i must be nonzero mod p")
    (t,) = _t_values(parser, args)
    return Deformation(args.p, None, args.i, t)


def _cmd_structure(parser, args) -> int:
    name = args.command
    if args.char == "0":
        params = _require_char0(parser, args)
        if name == "coproduct":
            obj, rank = hopf0.coproduct_closed(args.k, params), 2
        elif name == "antipode":
            obj, rank = hopf0.antipode_closed(args.k, params), 1
        else:
            parser.error(f"unknown structure map {name}")
        doc = {
            "object": name,
            "characteristic": "0",
            "i": params.i,
            "k": args.k,
            "order": params.order,
            "rank": rank,
            "series": jsonio.series_doc(obj),
        }
    else:
        params = _require_charp(parser, args)
        if name == "coproduct":
            obj, rank = hopfp.coproduct_p(args.k, params), 2
        elif name == "antipode":
            obj, rank = hopfp.antipode_p(args.k, params), 1
        else:
            parser.error(f"unknown structure map {name}")
        doc = {
            "object": name,
            "characteristic": str(params.char),
            "p": params.char,
            "i": params.i,
            "k": args.k % params.char,
            "t": t_label(params.t),
            "rank": rank,
            "polynomial": jsonio.series_doc(obj),
        }
    _emit(args, jsonio.dumps(doc) if args.format == "json" else str(obj) + "\n")
    return 0


def _cmd_counit(parser, args) -> int:
    if args.char == "0":
        params = _require_char0(parser, args)
        value = str(hopf0.counit(Element.gen(args.k)))
        doc = {"object": "counit", "characteristic": "0", "i": params.i, "k": args.k, "value": value}
    else:
        params = _require_charp(parser, args)
        value = str(hopfp.counit_p(restricted.ElementP.gen(args.k, params.char)))
        doc = {
            "object": "counit",
            "characteristic": str(params.char),
            "p": params.char,
            "i": params.i,
            "k": args.k % params.char,
            "value": value,
        }
    _emit(args, jsonio.dumps(doc) if args.format == "json" else value + "\n")
    return 0


def _cmd_twist(parser, args) -> int:
    args.char = "0"
    params = _require_char0(parser, args)
    F = hopf0.twist(params)
    doc = {
        "object": "twist",
        "characteristic": "0",
        "i": params.i,
        "order": params.order,
        "rank": 2,
        "series": jsonio.series_doc(F),
    }
    _emit(args, jsonio.dumps(doc) if args.format == "json" else str(F) + "\n")
    return 0


def _cmd_cobracket(parser, args) -> int:
    if args.i == 0:
        parser.error("i must be nonzero")
    try:
        delta = hopf0.cobracket_semiclassical(args.k, args.i)
    except hopf0.CrossRouteMismatch as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    doc = {
        "object": "cobracket",
        "characteristic": "0",
        "i": args.i,
        "k": args.k,
        "rank": 2,
        "element": jsonio.element_doc(delta),
    }
    _emit(args, jsonio.dumps(doc) if args.format == "json" else str(delta) + "\n")
    return 0


def _cmd_tables(parser, args) -> int:
    """Emit the complete structure-map tables for (p, i) as one JSON doc."""
    params = _require_charp(parser, args)
    p = params.char
    doc = {
        "object": "tables",
        "p": p,
        "i": params.i,
        "coproduct": {str(k): jsonio.series_doc(hopfp.coproduct_p(k, params)) for k in range(p)},
        "antipode": {str(k): jsonio.series_doc(hopfp.antipode_p(k, params)) for k in range(p)},
        "counit": {str(k): "0" for k in range(p)},
    }
    _emit(args, jsonio.dumps(doc))
    return 0


def _verify_cell(cell):
    """Verify one (p, i) cell; the cells of an --all-i sweep share no state."""
    params, t_values = cell
    return hopfp.verify_all_p(params, t_values)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_cells(fn, cells) -> list:
    """fn of each cell, in cell order; fn is a module-level function of one
    independent cell.  With two or more cells and CPUs, and fork available,
    the cells run in a pool of forked processes, which inherit the memos the
    parent has filled so far; spawn and forkserver would start from cold
    memos, so there the cells run serially."""
    n = min(len(cells), _usable_cpus())
    if n >= 2:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            with multiprocessing.get_context("fork").Pool(n) as pool:
                return pool.map(fn, cells, chunksize=1)
    return list(map(fn, cells))


def _cmd_verify(parser, args) -> int:
    if args.char == "0":
        if args.all_i:
            parser.error("--all-i only applies in characteristic p")
        if args.i is None:
            parser.error("characteristic 0 requires --i")
        params = _require_char0(parser, args)
        if args.k_min > args.k_max:
            parser.error("--k-min must not exceed --k-max")
        ks = range(args.k_min, args.k_max + 1)
        rep = hopf0.verify_all0(params, ks)
    else:
        if args.i is None and not args.all_i:
            parser.error("characteristic p requires --i or --all-i")
        _require_prime(parser, args)
        p = args.p
        t_values = _t_values(parser, args, allow_all=True)
        i_values = list(range(1, p)) if args.all_i else [args.i]
        for i in i_values:
            if i % p == 0:
                parser.error("i must be nonzero mod p")
        rep = restricted.verify_witt_iso(p)
        cells = [(Deformation(p, None, i), tuple(t_values)) for i in i_values]
        for cell_rep in _map_cells(_verify_cell, cells):
            rep.extend(cell_rep)

    if args.format == "json":
        _emit(args, jsonio.dumps(jsonio.report_doc(rep)))
    else:
        _emit(args, rep.summary() + "\n")
    return 0 if rep.ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("coproduct", "antipode"):
            return _cmd_structure(parser, args)
        if args.command == "counit":
            return _cmd_counit(parser, args)
        if args.command == "twist":
            return _cmd_twist(parser, args)
        if args.command == "cobracket":
            return _cmd_cobracket(parser, args)
        if args.command == "tables":
            return _cmd_tables(parser, args)
        if args.command == "verify":
            return _cmd_verify(parser, args)
        parser.error(f"unknown command {args.command}")
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
