"""The wittq benchmark: cold-process workloads with a correctness gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     every workload
    python3 perfbench/run.py --selftest                     fault injection
    python3 perfbench/run.py --record-digests               re-record outputs

Run from the repository root.  Every sample is a fresh interpreter running
``perfbench/child.py`` on the sources under ``src/``, because every ``wittq``
invocation starts with cold memos.  ``--trace 0`` reports the end-to-end
metrics of untraced samples; ``--trace 1`` adds traced samples (spans around
the public functions of each module, see ``spans.py``) and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every output passed the gate.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
SRC = "src"
OUT_DIR = ".bench_out"

SETUP_PROBES = 15  # set-up probes per run, on top of one warm-up probe
HARD_LIMIT_S = 170.0  # a run never lasts longer than this
CHECKS_RE = re.compile(rb"(\d+) checks, (\d+) failures\n?\Z")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass(frozen=True)
class Job:
    """One workload process: child mode and arguments, the number of
    operations it performs, and the key of its recorded output digest."""

    mode: str
    args: tuple[str, ...]
    ops: int
    key: str
    checks: bool = True  # prints "<n> checks, <f> failures" last
    power: bool = False  # the output is a p-power document


OUT_MARK = "{out}"  # replaced by the path of the sample's --out file


def charp_grid(seed: int) -> Job:
    return Job("cli", ("verify", "--char", "p", "--p", "5", "--all-i", "--t", "all"), 2698, "charp-grid")


def charp_p7_power(seed: int) -> Job:
    c = 1 + seed % 6
    return Job("power", ("7", "1", "2", str(c)), 2, f"charp-p7-power/t={c}", power=True)


def char0_verify(seed: int) -> Job:
    args = ("verify", "--char", "0", "--i", "2", "--order", "6", "--k-min", "-4", "--k-max", "4")
    return Job("cli", args, 264, "char0-verify")


def tables_emit(seed: int) -> Job:
    i = 1 + seed % 18
    args = ("tables", "--p", "19", "--i", str(i), "--out", OUT_MARK)
    return Job("cli", args, 1, f"tables-emit/i={i}", checks=False)


def selftest_clean(seed: int) -> Job:
    return Job("corrupt", ("3", "1", "none"), 24, "selftest-p3")


def selftest_corrupt(seed: int) -> Job:
    return Job("corrupt", ("3", "1", "1"), 24, "selftest-p3")


WORKLOADS = {
    "charp-grid": charp_grid,
    "charp-p7-power": charp_p7_power,
    "char0-verify": char0_verify,
    "tables-emit": tables_emit,
}
# Used by --selftest only: the same p=3 relation checks, clean and with one
# corrupted structure constant, gated against the clean digest.
SELFTEST_WORKLOADS = {"selftest-clean": selftest_clean, "selftest-corrupt": selftest_corrupt}

# how many distinct inputs the seed selects, for --record-digests
SEED_CLASSES = {"charp-grid": 1, "charp-p7-power": 6, "char0-verify": 1, "tables-emit": 18, "selftest-clean": 1}


# -- correctness gate ------------------------------------------------------------


def gate(job: Job, rc: int, output: bytes, digests: dict) -> tuple[int, list[str]]:
    """Failed operations and the list of misses for one sample.  A failed
    check, a wrong exit code, a wrong check count, a nonzero p-th power and a
    digest mismatch each count as one failed operation."""
    misses: list[str] = []
    failed_checks = 0
    if rc != 0:
        misses.append(f"exit code {rc}")
    if job.checks:
        m = CHECKS_RE.search(output)
        if m is None:
            misses.append("no check count")
        else:
            n, f = int(m.group(1)), int(m.group(2))
            failed_checks = f
            if f:
                misses.append(f"{f} failed checks")
            if n != job.ops:
                misses.append(f"{n} checks, expected {job.ops}")
    if job.power:
        try:
            doc = json.loads(output[: output.rfind(b"}") + 1])
            nonzero = [k for k in ("coproduct_power", "antipode_power") if doc[k] != {}]
        except (ValueError, KeyError):
            nonzero = ["unparsable document"]
        for k in nonzero:
            misses.append(f"{k} is not zero")
    digest = hashlib.sha256(output).hexdigest()
    if digests.get(job.key) != digest:
        misses.append(f"output digest {digest[:12]} does not match the one recorded for {job.key}")
    others = [m for m in misses if not m.endswith("failed checks")]
    return min(failed_checks + len(others), job.ops), misses


# -- one process -------------------------------------------------------------------


@dataclass
class Sample:
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    rc: int
    output: bytes
    out_bytes: int
    layers: dict | None


# WITTQ_THREADS is unset: the thread pool is slower and races the memos.
# Bytecode caching is allowed, as for an installed package: the warm-up probe
# compiles, and set-up time is then import time, not compile time.
CHILD_ENV_DROP = ("WITTQ_THREADS", "PYTHONPATH", "PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CHILD_ENV_DROP}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, args, work: str, trace_path: str | None, deadline: float) -> Sample | None:
    """Run one child to completion; None when it had to be killed at the deadline."""
    status = os.path.join(work, "status.json")
    out_path = os.path.join(work, "out")
    stdout_path = os.path.join(work, "stdout")
    # -S: no site hooks, which can import packages unrelated to wittq
    argv = [sys.executable, "-S", CHILD, SRC, status, trace_path or "-", mode]
    argv += [out_path if a == OUT_MARK else a for a in args]
    with open(stdout_path, "wb") as fh:
        start = now()
        proc = subprocess.Popen(argv, stdout=fh, env=child_env())
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, wstatus, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = now()
    proc.returncode = rc = os.waitstatus_to_exitcode(wstatus)
    if end >= deadline:
        return None
    try:
        with open(status, encoding="utf-8") as fh:
            st = json.load(fh)
    except (OSError, ValueError):
        st = {"ready": end}
        rc = rc or 3
    output_path = out_path if OUT_MARK in args else stdout_path
    try:
        with open(output_path, "rb") as fh:
            output = fh.read()
    except OSError:
        output = b""
    out_bytes = os.path.getsize(stdout_path) + (len(output) if output_path == out_path else 0)
    for path in (status, out_path, stdout_path):
        if os.path.exists(path):
            os.remove(path)
    return Sample(end - start, st["ready"] - start, usage.ru_maxrss / 1024.0, rc, output, out_bytes, st.get("layers"))


# -- one run -------------------------------------------------------------------------


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "PYTHONHASHSEED": "0",
        "WITTQ_THREADS": None,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repository."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "wittq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Measure one workload for about ``seconds``: set-up probes, then untraced
    samples (and, with ``trace``, alternating traced samples) while the next
    one is expected to end within the time."""
    make = {**WORKLOADS, **SELFTEST_WORKLOADS}[workload]
    job = make(seed)
    digests = load_digests()
    start = now()
    deadline = start + HARD_LIMIT_S
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    span_dir = os.path.join(OUT_DIR, "spans")
    misses: list[str] = []
    attempted = failed = 0
    setups: list[float] = []
    plain: list[Sample] = []
    traced: list[Sample] = []
    try:
        for k in range(SETUP_PROBES + 1):
            s = spawn("setup", (), work, None, deadline)
            if s is None or s.rc != 0:
                raise SystemExit(f"set-up probe failed (exit code {s.rc if s else 'timeout'})")
            if k:  # the first probe warms the bytecode cache
                setups.append(s.setup_s)
        while True:
            # traced and untraced samples alternate, starting traced, so that the
            # untraced one sits between the two traced ones whose counts are compared
            want_trace = bool(trace) and len(traced) <= len(plain)
            trace_path = None
            if want_trace:
                os.makedirs(span_dir, exist_ok=True)
                trace_path = os.path.join(span_dir, f"{workload}-seed{seed}-{len(traced)}.json")
            s = spawn(job.mode, job.args, work, trace_path, deadline)
            attempted += job.ops
            if s is None:
                failed += job.ops
                misses.append(f"killed at the {HARD_LIMIT_S:.0f} s limit")
                break
            n_failed, sample_misses = gate(job, s.rc, s.output, digests)
            failed += n_failed
            misses += sample_misses
            s.output = b""
            (traced if want_trace else plain).append(s)
            setups.append(s.setup_s)
            elapsed = now() - start
            per_sample = statistics.median(x.wall_s for x in plain + traced)
            enough = len(traced) >= 2 or not trace
            if enough and elapsed + per_sample > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = layer_report(plain, traced, misses)
    else:
        metrics = {
            "wall_s": summary([s.wall_s for s in plain], "s"),
            "setup_s": summary(setups, "s"),
            "peak_rss_mb": summary([s.peak_rss_mb for s in plain], "MB"),
        }
    return {
        "correct": not misses,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "misses": sorted(set(misses)),
        "samples": {"wall": len(plain), "setup": len(setups), "traced": len(traced)},
        "metrics": metrics,
    }


def summary(values: list[float], unit: str) -> dict:
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "n": len(values), "q1": q1, "q3": q3}


def layer_report(plain: list[Sample], traced: list[Sample], misses: list[str]) -> dict:
    import spans

    rows = [s.layers for s in traced]
    metrics = {}
    for name, unit in spans.METRICS.items():
        if name == "cli.out_bytes":
            values = [s.out_bytes for s in traced]
        elif name == "trace.overhead_s":
            values = [statistics.median(s.wall_s for s in traced) - statistics.median(s.wall_s for s in plain)]
        else:
            values = [r[name] for r in rows]
        if unit in spans.COUNT_UNITS and len(set(values)) > 1:
            misses.append(f"{name} differs between traced runs: {values}")
        metrics[name] = summary(values, unit)
    return metrics


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


# -- printing ------------------------------------------------------------------------


def print_result(workload: str, env: dict, result: dict) -> None:
    print(f"# {workload}: {json.dumps(env, sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"{workload:16s} {name:28s} {m['value']:14.6f} {m['unit']:6s} "
              f"n={m['n']:<3d} q1={m['q1']:.6g} q3={m['q3']:.6g}")
    print(f"{workload:16s} {'fail_frac':28s} {result['fail_frac']:14.6f} ratio  "
          f"{result['failed']}/{result['attempted']} operations")
    for miss in result["misses"]:
        print(f"{workload:16s} GATE MISS: {miss}")
    if "cli.self_s" in result["metrics"]:
        busy = {n: m["value"] for n, m in result["metrics"].items() if n.endswith("self_s")}
        top = max(busy, key=busy.get)
        live = sorted({n.split(".")[0] for n, m in result["metrics"].items()
                       if m["unit"] == "count" and m["value"] and n.split(".")[0] not in ("report", "trace")})
        print(f"{workload:16s} layers with work: {', '.join(live)}; largest self time: {top}")


def write_record(workload: str, seed: int, trace: int, env: dict, result: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, **result}, fh, indent=1)


def final_line(result: dict) -> str:
    metrics = {n: {"value": m["value"], "unit": m["unit"]} for n, m in result["metrics"].items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# -- entry points ----------------------------------------------------------------------


def bench(workloads: list[str], seed: int, seconds: int, trace: int) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        env = environment(workload, seed, seconds, trace)
        result = run(workload, seed, seconds, trace)
        print_result(workload, env, result)
        write_record(workload, seed, trace, env, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        combined["metrics"].update({prefix + n: m for n, m in result["metrics"].items()})
    print(final_line(combined), flush=True)
    return 0 if combined["correct"] else 1


def selftest() -> int:
    """Show that the gate fails a run with a corrupted structure constant and
    an output with one byte altered, and passes the clean run."""
    digests = load_digests()
    ok = True

    def expect(what: str, cond: bool) -> None:
        nonlocal ok
        ok &= cond
        print(f"[{'ok' if cond else 'WRONG'}] {what}")

    for workload, want_rc in (("selftest-clean", 0), ("selftest-corrupt", 1)):
        proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seconds", "1"],
                              capture_output=True, timeout=HARD_LIMIT_S + 5)
        last = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        expect(f"{workload}: exit code {proc.returncode}, correct={last['correct']}, "
               f"failed {last['failed']}/{last['attempted']}",
               proc.returncode == want_rc and last["correct"] == (want_rc == 0) and (last["failed"] > 0) == bool(want_rc))

    work = os.path.join(OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        job = selftest_clean(0)
        s = spawn(job.mode, job.args, work, None, now() + HARD_LIMIT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    n, misses = gate(job, s.rc, s.output, digests)
    expect(f"clean output passes the gate ({n} failed)", n == 0 and not misses)
    for pos in (0, len(s.output) // 2, len(s.output) - 1):
        flipped = bytearray(s.output)
        flipped[pos] ^= 0x01
        n, misses = gate(job, s.rc, bytes(flipped), digests)
        expect(f"byte {pos} altered: {n} failed, {'; '.join(misses)}", n > 0 and bool(misses))
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def record_digests() -> int:
    """Record the output digest of every distinct job.  Refuses to record an
    output that fails any other part of the gate."""
    digests = {}
    work = os.path.join(OUT_DIR, f"record-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for workload, n_seeds in SEED_CLASSES.items():
            make = {**WORKLOADS, **SELFTEST_WORKLOADS}[workload]
            for seed in range(n_seeds):
                job = make(seed)
                s = spawn(job.mode, job.args, work, None, now() + HARD_LIMIT_S)
                digest = hashlib.sha256(s.output).hexdigest()
                _, misses = gate(job, s.rc, s.output, {job.key: digest})
                if misses:
                    print(f"{job.key}: {'; '.join(misses)}", file=sys.stderr)
                    return 1
                digests[job.key] = digest
                print(f"{job.key} {digest} {s.wall_s:.2f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wittq", "__init__.py")):
        print(f"no wittq sources under {SRC}/: run from the repository root", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.record_digests:
        return record_digests()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS and name not in SELFTEST_WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return bench(names, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
