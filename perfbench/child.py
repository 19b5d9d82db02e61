"""One workload process.

Usage: python3 perfbench/child.py SRC STATUS TRACE MODE [ARGS...]

Imports ``wittq`` from SRC, records the moment it is ready to compute
(CLOCK_MONOTONIC, comparable with the parent's spawn time), then runs MODE:

  setup               stop right there (a set-up probe);
  cli ARGS...         ``wittq.cli.main(ARGS)``, exactly what ``wittq ARGS`` runs;
  power P I K T       check Delta(D_K)^P = 0 and S(D_K)^P = 0 at t = T through
                      the public ``hopfp`` API, printing both maps and powers;
  corrupt P I TERM    ``verify_relations_preserved`` with ``corrupt_term=TERM``
                      ("none" for a clean run), printed like ``wittq verify``
                      (the gate's fault injection).

TRACE is "-" for an untraced run, or the path the spans are written to.  The
status (ready time, and the per-layer metrics of a traced run) goes to STATUS
as JSON.  The exit code is the one ``wittq`` would give: 0 when every check
passed, 1 otherwise.
"""

import json
import os
import sys
import time


def main(argv) -> int:
    src, status_path, trace_path, mode, *rest = argv
    sys.path.insert(0, os.path.abspath(src))
    import wittq.cli  # noqa: F401  (imports every wittq module)

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    pkg = os.path.dirname(os.path.abspath(wittq.cli.__file__))
    if os.path.dirname(pkg) != os.path.abspath(src):
        sys.stderr.write(f"wittq imported from {pkg}, not from {src}\n")
        return 3
    status = {"ready": ready}
    if mode == "setup":
        return _finish(status_path, status, 0)

    from wittq import cli, hopf0, hopfp, jsonio, report, restricted, scalars, series, uwitt

    modules = {
        m.__name__.rpartition(".")[2]: m
        for m in (cli, hopf0, hopfp, jsonio, report, restricted, scalars, series, uwitt)
    }
    tracer = None
    if trace_path != "-":
        import spans  # the benchmark's own module, next to this file

        tracer = spans.Tracer(run_id=os.path.basename(trace_path))
        spans.install(tracer, modules)
        memo_before = spans.memo_snapshot(modules)

    if mode == "cli":
        rc = modules["cli"].main(rest)
    elif mode == "power":
        rc = _power(modules, *map(int, rest))
    elif mode == "corrupt":
        p, i, term = rest
        rc = _corrupt(modules, int(p), int(i), None if term == "none" else int(term))
    else:
        sys.stderr.write(f"unknown mode {mode}\n")
        return 2
    sys.stdout.flush()

    if tracer is not None:
        status["layers"] = spans.layer_metrics(tracer, memo_before, spans.memo_snapshot(modules))
        tracer.dump(trace_path)
    return _finish(status_path, status, rc)


def _power(modules, p: int, i: int, k: int, t: int) -> int:
    hopfp, jsonio = modules["hopfp"], modules["jsonio"]
    params = hopfp.HopfParamsP(p, i, t)
    delta = hopfp.coproduct_p(k, params)
    delta_pow = delta**p
    anti = hopfp.antipode_p(k, params)
    anti_pow = anti**p
    doc = {
        "object": "p-power",
        "p": p,
        "i": i,
        "k": k,
        "t": t,
        "coproduct": jsonio.series_doc(delta),
        "antipode": jsonio.series_doc(anti),
        "coproduct_power": jsonio.series_doc(delta_pow),
        "antipode_power": jsonio.series_doc(anti_pow),
    }
    sys.stdout.write(jsonio.dumps(doc))
    zero = [delta_pow.is_zero(), anti_pow.is_zero()]
    sys.stdout.write(f"{len(zero)} checks, {zero.count(False)} failures\n")
    return 0 if all(zero) else 1


def _corrupt(modules, p: int, i: int, term: int | None) -> int:
    hopfp = modules["hopfp"]
    rep = hopfp.verify_relations_preserved(hopfp.HopfParamsP(p, i), corrupt_term=term)
    sys.stdout.write(rep.summary() + "\n")
    return 0 if rep.ok else 1


def _finish(path: str, status: dict, rc: int) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(status, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
