"""Command-line front end: compute structure maps, emit tables, run verifiers.

Exit codes: 0 on success / all checks passing, 1 when any verification fails
or on an i/o error, 2 on usage errors.  JSON output follows the canonical
schema in jsonio and is byte-identical for identical inputs.  Every command
hands its JSON document and its text form to _emit, which builds the one that
--format asks for and streams it to --out or stdout.

Every command names one deformation, built by _deformation: it refuses the
options of the other characteristic and leaves every rule of the deformation
itself to Deformation, whose ValueError is the usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import hopf0, hopfp, jsonio, restricted
from .series import Deformation, counit


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittq",
        description="Exact structure maps and identity verification for the "
        "quantized Witt algebra, in characteristic 0 and mod p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(name, help, run, char=True, k=False, order=True, t=True):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
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
        return sp

    add_common("coproduct", "deformed coproduct of one generator", _cmd_structure, k=True)
    add_common("antipode", "deformed antipode of one generator", _cmd_structure, k=True)
    add_common("counit", "counit of one generator", _cmd_counit, k=True, order=False, t=False)
    add_common("twist", "the twisting element (characteristic 0)", _cmd_twist, char=False).set_defaults(char="0")
    cob = sub.add_parser("cobracket", help="order-t cobracket of one generator (characteristic 0)")
    cob.add_argument("--i", type=int, required=True)
    cob.add_argument("--k", type=int, required=True)
    cob.add_argument("--format", choices=["text", "json"], default="text")
    cob.add_argument("--out", help="output path (default stdout)")
    cob.set_defaults(char="0", run=_cmd_cobracket)

    tab = sub.add_parser("tables", help="emit the full coproduct/antipode/counit tables for (p, i)")
    tab.add_argument("--p", type=int, required=True)
    tab.add_argument("--i", type=int, required=True)
    tab.add_argument("--out", help="output path (default stdout)")
    tab.set_defaults(char="p", format="json", run=_cmd_tables)

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument("--char", choices=["0", "p"], required=True)
    which_i = ver.add_mutually_exclusive_group()
    which_i.add_argument("--i", type=int, help="deformation direction (or use --all-i in char p)")
    which_i.add_argument("--all-i", action="store_true", help="sweep every nonzero i mod p")
    ver.add_argument("--p", type=int, help="odd prime (characteristic p only)")
    ver.add_argument("--order", type=int, help="truncation order (characteristic 0 only, default 4)")
    ver.add_argument("--k-min", type=int, help="lowest generator index (characteristic 0 only, default -3)")
    ver.add_argument("--k-max", type=int, help="highest generator index (characteristic 0 only, default 3)")
    ver.add_argument("--t", default=None, help="'symbolic', a residue, or 'all' (characteristic p only)")
    ver.add_argument("--format", choices=["text", "json"], default="text")
    ver.add_argument("--out", help="output path (default stdout)")
    ver.set_defaults(run=_cmd_verify)
    return parser


def _emit(args, doc, shown=None) -> None:
    """Write a command's output to --out or stdout: the line str(shown) under
    --format text, else the JSON document doc(), streamed; only one is built."""
    with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if args.format == "text":
            print(shown, file=fh)
        else:
            jsonio.dump(doc(), fh)


def _deformation(parser, args, i=None) -> Deformation:
    """The deformation the arguments name, in direction i (default --i), at
    symbolic t.  Options of the other characteristic are refused here; every
    rule of the deformation is Deformation's, and its ValueError exits 2."""
    if args.char == "p":
        if getattr(args, "order", None) is not None:
            parser.error("--order only applies in characteristic 0")
        if getattr(args, "k_min", None) is not None or getattr(args, "k_max", None) is not None:
            parser.error("--k-min and --k-max only apply in characteristic 0")
        if args.p is None:
            parser.error("characteristic p requires --p")
        char, order = args.p, None
    else:
        if getattr(args, "p", None) is not None:
            parser.error("--p only applies in characteristic p")
        if getattr(args, "t", None) not in (None, "symbolic"):
            parser.error("--t only applies in characteristic p")
        order = getattr(args, "order", None)
        char, order = 0, 4 if order is None else order
    try:
        return Deformation(char, order, args.i if i is None else i)
    except ValueError as exc:
        parser.error(str(exc))


def _t_values(parser, args, p: int) -> list:
    """The t modes --t asks for at the validated prime p: [None] for symbolic
    t (the default, and the only mode of characteristic 0), one residue, or,
    for verify, symbolic t and every residue for 'all'."""
    raw, allow_all = getattr(args, "t", None), args.command == "verify"
    if raw in (None, "symbolic"):
        return [None]
    if allow_all and raw == "all":
        return [None] + list(range(p))
    try:
        return [int(raw) % p]
    except ValueError:
        modes = "'symbolic', 'all' or an integer" if allow_all else "'symbolic' or an integer"
        parser.error(f"--t must be {modes}, got {raw!r}")


def _head(args, d: Deformation, *omit) -> dict:
    """The head of a document: object and characteristic, then d.point with
    --k (mod p) after i, without the keys in omit."""
    head = {"object": args.command, "characteristic": str(d.char)}
    k = getattr(args, "k", None)
    for key, value in d.point.items():
        head[key] = value
        if key == "i" and k is not None:
            head["k"] = k % d.char if d.char else k
    return {key: value for key, value in head.items() if key not in omit}


def _counit(d: Deformation, k: int) -> str:
    return str(counit(d.gen(k)))


def _cmd_structure(parser, args) -> int:
    d = _deformation(parser, args)
    (t,) = _t_values(parser, args, d.char)
    d = d.at(t)
    # the per-characteristic names, which perfbench/spans.py times as builders
    if args.command == "coproduct":
        obj = (hopfp.coproduct_p if d.char else hopf0.coproduct_closed)(args.k, d)
    else:
        obj = (hopfp.antipode_p if d.char else hopf0.antipode_closed)(args.k, d)
    key = "polynomial" if d.char else "series"
    _emit(args, lambda: {**_head(args, d), "rank": obj.rank, key: jsonio.series_doc(obj)}, obj)
    return 0


def _cmd_counit(parser, args) -> int:
    d = _deformation(parser, args)
    value = _counit(d, args.k)
    _emit(args, lambda: dict(_head(args, d, "order", "t"), value=value), value)
    return 0


def _cmd_twist(parser, args) -> int:
    d = _deformation(parser, args)
    F = hopf0.twist(d)
    _emit(args, lambda: dict(_head(args, d), rank=2, series=jsonio.series_doc(F)), F)
    return 0


def _cmd_cobracket(parser, args) -> int:
    d = _deformation(parser, args)
    try:
        delta = hopf0.cobracket_semiclassical(args.k, d.i)
    except hopf0.CrossRouteMismatch as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    _emit(args, lambda: dict(_head(args, d, "order"), rank=2, element=jsonio.element_doc(delta)), delta)
    return 0


def _cmd_tables(parser, args) -> int:
    """Emit the complete structure-map tables for (p, i) as one JSON doc."""
    d = _deformation(parser, args)
    ks = range(d.char)
    _emit(args, lambda: dict(
        _head(args, d, "characteristic", "t"),
        coproduct={str(k): jsonio.series_doc(hopfp.coproduct_p(k, d)) for k in ks},
        antipode={str(k): jsonio.series_doc(hopfp.antipode_p(k, d)) for k in ks},
        counit={str(k): _counit(d, k) for k in ks},
    ))
    return 0


def _cmd_verify(parser, args) -> int:
    if args.char == "0":
        if args.all_i:
            parser.error("--all-i only applies in characteristic p")
        if args.i is None:
            parser.error("characteristic 0 requires --i")
        d = _deformation(parser, args)
        k_min = -3 if args.k_min is None else args.k_min
        k_max = 3 if args.k_max is None else args.k_max
        if k_min > k_max:
            parser.error("--k-min must not exceed --k-max")
        rep = hopf0.verify_all0(d, range(k_min, k_max + 1))
    else:
        if args.i is None and not args.all_i:
            parser.error("characteristic p requires --i or --all-i")
        d = _deformation(parser, args, 1 if args.all_i else None)
        t_values = tuple(_t_values(parser, args, d.char))
        rep = restricted.verify_witt_iso(d.char)
        if args.all_i:
            for cell_rep in hopfp.verify_all_i(d, t_values):
                rep.extend(cell_rep)
        else:
            rep.extend(hopfp.verify_all_p(d, t_values))
    _emit(args, lambda: jsonio.report_doc(rep), rep)
    return 0 if rep.ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(parser, args)
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
