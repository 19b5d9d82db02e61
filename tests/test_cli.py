import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from wittq import jsonio
from wittq.cli import main
from wittq.hopf0 import HopfParams, coproduct_closed
from wittq.hopfp import HopfParamsP, antipode_p, coproduct_p
from wittq.series import Deformation


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_coproduct_char0_json(capsys):
    code, out = run_cli(
        ["coproduct", "--char", "0", "--i", "1", "--k", "0", "--order", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["object"] == "coproduct"
    assert doc["characteristic"] == "0"
    got = jsonio.parse_series(doc["series"], doc["order"], doc["rank"])
    assert got == coproduct_closed(0, HopfParams(1, 2))


def test_coproduct_charp_json(capsys):
    code, out = run_cli(
        ["coproduct", "--char", "p", "--p", "5", "--i", "2", "--k", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 5 and doc["t"] == "symbolic"
    got = jsonio.parse_poly(doc["polynomial"], 5, 2)
    assert got == coproduct_p(3, HopfParamsP(5, 2))


def test_antipode_specialized_t(capsys):
    code, out = run_cli(
        ["antipode", "--char", "p", "--p", "3", "--i", "1", "--k", "0", "--t", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["t"] == "2"
    got = jsonio.parse_poly(doc["polynomial"], 3, 1)
    assert got == antipode_p(0, HopfParamsP(3, 1, 2))


def test_counit_both_characteristics(capsys):
    code, out = run_cli(["counit", "--char", "0", "--i", "1", "--k", "4", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["value"] == "0"
    code, out = run_cli(["counit", "--char", "p", "--p", "5", "--i", "1", "--k", "2"], capsys)
    assert code == 0 and out.strip() == "0"


def test_twist_text(capsys):
    code, out = run_cli(["twist", "--i", "1", "--order", "1"], capsys)
    assert code == 0
    assert "L_0 (x) L_1" in out


def test_cobracket(capsys):
    code, out = run_cli(["cobracket", "--i", "2", "--k", "0", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["element"]  # nonzero cobracket at k=0


def test_cobracket_exit1_on_route_mismatch(monkeypatch, capsys):
    # route (a) reads a closed form whose degree-1 summand has its sign flipped
    import wittq.cli as cli

    closed = cli.hopf0.coproduct_closed
    monkeypatch.setattr(cli.hopf0, "coproduct_closed", lambda k, params: closed(k, replace(params, fault=1)))
    code = main(["cobracket", "--i", "1", "--k", "0", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "verification failure: cobracket routes differ at k=0, i=1\n"


def test_json_byte_identical(capsys):
    argv = ["coproduct", "--char", "p", "--p", "5", "--i", "2", "--k", "1", "--format", "json"]
    _, out1 = run_cli(argv, capsys)
    _, out2 = run_cli(argv, capsys)
    assert out1 == out2


def test_tables_roundtrip(tmp_path, capsys):
    path = tmp_path / "tables.json"
    code, _ = run_cli(["tables", "--p", "3", "--i", "1", "--out", str(path)], capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    assert set(doc["coproduct"]) == {"0", "1", "2"}
    assert set(doc["antipode"]) == {"0", "1", "2"}
    assert all(v == "0" for v in doc["counit"].values())
    pp = HopfParamsP(3, 1)
    for k in range(3):
        assert jsonio.parse_poly(doc["coproduct"][str(k)], 3, 2) == coproduct_p(k, pp)
        assert jsonio.parse_poly(doc["antipode"][str(k)], 3, 1) == antipode_p(k, pp)


def test_tables_roundtrip_p5(tmp_path, capsys):
    path = tmp_path / "t5.json"
    code, _ = run_cli(["tables", "--p", "5", "--i", "2", "--out", str(path)], capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    pp = HopfParamsP(5, 2)
    for k in range(5):
        assert jsonio.parse_poly(doc["coproduct"][str(k)], 5, 2) == coproduct_p(k, pp)


def test_tables_rejects_zero_i(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--p", "3", "--i", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--p", "3", "--i", "3"])  # 3 = 0 mod 3
    assert exc.value.code == 2


def test_usage_errors_exit_2(capsys):
    cases = [
        ["coproduct", "--char", "0", "--i", "0", "--k", "1"],
        ["coproduct", "--char", "0", "--i", "1", "--k", "1", "--p", "5"],
        ["coproduct", "--char", "p", "--i", "1", "--k", "1"],  # missing --p
        ["coproduct", "--char", "p", "--p", "4", "--i", "1", "--k", "1"],
        ["coproduct", "--char", "p", "--p", "5", "--i", "1", "--k", "1", "--order", "3"],
        ["coproduct", "--char", "0", "--i", "1", "--k", "1", "--t", "2"],
        ["verify", "--char", "0", "--order", "2"],  # missing --i
        ["verify", "--char", "0", "--i", "1", "--order", "1", "--k-min", "3", "--k-max", "-3"],
        ["verify", "--char", "p", "--p", "5"],  # missing --i/--all-i
        ["verify", "--char", "p", "--p", "5", "--all-i", "--i", "3", "--t", "1"],  # --i and --all-i
        ["verify", "--char", "p", "--p", "3", "--i", "1", "--k-min", "5", "--k-max", "-5", "--t", "1"],
        ["verify", "--char", "p", "--p", "3", "--i", "1", "--k-max", "2"],  # k range is char 0 only
        ["tables", "--p", "8", "--i", "1"],
        ["nonsense"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


# (argv, the Deformation the argv names): each breaks one rule of the deformation
DEFORMATION_RULES = [
    (["coproduct", "--char", "0", "--i", "0", "--k", "1"], (0, 4, 0)),
    (["coproduct", "--char", "0", "--i", "1", "--k", "1", "--order", "-1"], (0, -1, 1)),
    (["coproduct", "--char", "p", "--p", "2", "--i", "1", "--k", "1"], (2, None, 1)),
    (["coproduct", "--char", "p", "--p", "9", "--i", "1", "--k", "1"], (9, None, 1)),
    (["coproduct", "--char", "p", "--p", "5", "--i", "10", "--k", "1"], (5, None, 10)),
    (["counit", "--char", "0", "--i", "0", "--k", "1"], (0, 4, 0)),
    (["counit", "--char", "p", "--p", "2", "--i", "1", "--k", "1"], (2, None, 1)),
    (["counit", "--char", "p", "--p", "9", "--i", "1", "--k", "1"], (9, None, 1)),
    (["counit", "--char", "p", "--p", "3", "--i", "-3", "--k", "1"], (3, None, -3)),
    (["tables", "--p", "2", "--i", "1"], (2, None, 1)),
    (["tables", "--p", "9", "--i", "1"], (9, None, 1)),
    (["tables", "--p", "3", "--i", "0"], (3, None, 0)),
    (["verify", "--char", "0", "--i", "0"], (0, 4, 0)),
    (["verify", "--char", "0", "--i", "1", "--order", "-1"], (0, -1, 1)),
    (["verify", "--char", "p", "--p", "2", "--i", "1"], (2, None, 1)),
    (["verify", "--char", "p", "--p", "9", "--all-i"], (9, None, 1)),
    (["verify", "--char", "p", "--p", "7", "--i", "14", "--t", "all"], (7, None, 14)),
    (["cobracket", "--i", "0", "--k", "1"], (0, 4, 0)),
]


@pytest.mark.parametrize("argv, values", DEFORMATION_RULES, ids=["_".join(a).replace("--", "") for a, _ in DEFORMATION_RULES])
def test_deformation_rules_are_usage_errors(argv, values, capsys):
    with pytest.raises(ValueError) as rule:
        Deformation(*values)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: {rule.value}\n" in capsys.readouterr().err


def test_counit_char0_usage_errors(capsys):
    cases = {
        "--p only applies in characteristic p": ["--i", "1", "--p", "5"],
        "i must be nonzero": ["--i", "0"],
    }
    for message, extra in cases.items():
        with pytest.raises(SystemExit) as exc:
            main(["counit", "--char", "0", "--k", "2", *extra])
        assert exc.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err


def test_verify_char0_exit0(capsys):
    code, out = run_cli(
        ["verify", "--char", "0", "--i", "1", "--order", "2", "--k-min", "-2", "--k-max", "2"],
        capsys,
    )
    assert code == 0
    assert "0 failures" in out


def test_verify_char0_order0(capsys):
    code, _ = run_cli(["verify", "--char", "0", "--i", "5", "--order", "0"], capsys)
    assert code == 0


def test_verify_charp_all_i_symbolic(capsys):
    code, out = run_cli(
        ["verify", "--char", "p", "--p", "3", "--all-i", "--t", "symbolic", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["failed"] == 0


def test_verify_exit1_on_injected_fault(capsys, monkeypatch):
    # fault injection: corrupt the verifier the CLI dispatches to
    import wittq.cli as cli
    from wittq.report import VerificationReport

    def broken(params, t_values=(None,)):
        rep = VerificationReport()
        rep.add("injected", {"p": params.char}, False, "forced failure")
        return rep

    monkeypatch.setattr(cli.hopfp, "verify_all_p", broken)
    code, out = run_cli(["verify", "--char", "p", "--p", "3", "--i", "1"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_module_entrypoint_runs():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "wittq", "counit", "--char", "0", "--i", "1", "--k", "3"],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0"


_STDLIB_ONLY = """
import contextlib, io, json, sys
before = set(sys.modules)
import wittq
from wittq.cli import main
for argv in (["verify", "--char", "p", "--p", "3", "--i", "1"], ["tables", "--p", "3", "--i", "1"], ["twist", "--i", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"wittq"})))
"""


def test_runtime_imports_only_the_standard_library():
    # pyproject declares no dependencies; the modules site loaded before wittq do not count
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", _STDLIB_ONLY],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_scalar_str_roundtrip():
    from fractions import Fraction

    for s in ("0", "5", "-17", "3/4", "-1/8"):
        assert jsonio.scalar_str(jsonio.parse_scalar(s)) == s
    assert jsonio.scalar_str(Fraction(6, 4)) == "3/2"


D0, D1 = [[1, 0, 0]], [[0, 1, 0]]


@pytest.mark.parametrize(
    "parse",
    [
        # a negative degree in a polynomial, and in a series (read as t^order)
        lambda: jsonio.parse_poly({"0": [{"coeff": "1", "factors": D0}], "-1": [{"coeff": "2", "factors": D1}]}, 3, 1),
        lambda: jsonio.parse_series({"-1": [{"coeff": "1", "factors": [[[1, 1]]]}]}, 2, 1),
        # a degree above the order
        lambda: jsonio.parse_series({"3": [{"coeff": "1", "factors": [[[1, 1]]]}]}, 2, 1),
        # a key with two factors in a rank-1 element
        lambda: jsonio.parse_element([{"coeff": "1", "factors": [[[1, 1]], []]}], 1),
        # one key twice
        lambda: jsonio.parse_element_p([{"coeff": "1", "factors": D0}, {"coeff": "2", "factors": D0}], 3, 1),
        # char-0 monomials not in PBW normal form: descending indices, a zero exponent
        lambda: jsonio.parse_element([{"coeff": "1", "factors": [[[2, 1], [1, 1]]]}], 1),
        lambda: jsonio.parse_element([{"coeff": "1", "factors": [[[1, 0]]]}], 1),
        # scalars that are not a decimal integer or num/den string
        lambda: jsonio.parse_element([{"coeff": "1e3", "factors": [[[1, 1]]]}], 1),
        lambda: jsonio.parse_element([{"coeff": "1.5", "factors": [[[1, 1]]]}], 1),
        lambda: jsonio.parse_element([{"coeff": " 1/2 ", "factors": [[[1, 1]]]}], 1),
        # char-p coefficients that are not a decimal integer string (each read as 2 by int)
        lambda: jsonio.parse_element_p([{"coeff": " 2 ", "factors": D0}], 3, 1),
        lambda: jsonio.parse_element_p([{"coeff": "+2", "factors": D0}], 3, 1),
        lambda: jsonio.parse_element_p([{"coeff": "1_1", "factors": D0}], 3, 1),
        lambda: jsonio.parse_element_p([{"coeff": 2, "factors": D0}], 3, 1),
        lambda: jsonio.parse_element_p([{"coeff": 2.9, "factors": D0}], 3, 1),
        # factor entries that are not JSON integers (each read as D_0, the last as L_2)
        lambda: jsonio.parse_element_p([{"coeff": "1", "factors": [[1.9, 0, 0]]}], 3, 1),
        lambda: jsonio.parse_element_p([{"coeff": "1", "factors": [[True, 0, 0]]}], 3, 1),
        lambda: jsonio.parse_element_p([{"coeff": "1", "factors": [["1", 0, 0]]}], 3, 1),
        lambda: jsonio.parse_element([{"coeff": "1", "factors": [[["2", True]]]}], 1),
        # a degree key series_doc does not write
        lambda: jsonio.parse_poly({" 1": [{"coeff": "1", "factors": D0}]}, 3, 1),
        # documents of another shape: factors not an array, a term without
        # coeff, a term given as a list, a polynomial given as a list, and
        # char-0 monomials not nested as lists of [index, exponent] pairs
        lambda: jsonio.parse_element_p([{"coeff": "1", "factors": 5}], 3, 1),
        lambda: jsonio.parse_element_p([{"factors": D0}], 3, 1),
        lambda: jsonio.parse_element_p([["1", D0]], 3, 1),
        lambda: jsonio.parse_poly([], 3, 1),
        lambda: jsonio.parse_element([{"coeff": "1", "factors": [[1, 1]]}], 1),
        # scalars scalar_str never writes: leading zeros, "-0", a fraction not
        # in lowest terms or with denominator 1, a denominator with a leading zero
        lambda: jsonio.parse_scalar("007"),
        lambda: jsonio.parse_scalar("-0"),
        lambda: jsonio.parse_scalar("2/4"),
        lambda: jsonio.parse_scalar("1/1"),
        lambda: jsonio.parse_scalar("1/02"),
        # char-p coefficients that are not a residue as written (7 and -1 read
        # as 1 and 2 at p = 3), and zero coefficients in both characteristics
        lambda: jsonio.parse_element_p([{"coeff": "7", "factors": D0}], 3, 1),
        lambda: jsonio.parse_element_p([{"coeff": "-1", "factors": D0}], 3, 1),
        lambda: jsonio.parse_element_p([{"coeff": "02", "factors": D0}], 3, 1),
        lambda: jsonio.parse_element_p([{"coeff": "0", "factors": D0}], 3, 1),
        lambda: jsonio.parse_element([{"coeff": "0", "factors": [[[1, 1]]]}], 1),
        # a degree with an empty term list
        lambda: jsonio.parse_series({"0": []}, 2, 1),
        lambda: jsonio.parse_poly({"0": []}, 3, 1),
    ],
    ids=[
        "poly-negative-degree",
        "series-negative-degree",
        "degree-above-order",
        "factor-count",
        "repeated-key",
        "descending-indices",
        "zero-exponent",
        "scalar-exponent",
        "scalar-decimal",
        "scalar-spaces",
        "charp-coeff-spaces",
        "charp-coeff-plus",
        "charp-coeff-underscore",
        "charp-coeff-number",
        "charp-coeff-float",
        "entry-float",
        "entry-bool",
        "entry-string",
        "char0-entry-string-and-bool",
        "degree-key-space",
        "factors-not-array",
        "term-without-coeff",
        "term-as-list",
        "poly-as-list",
        "char0-monomial-shape",
        "scalar-leading-zeros",
        "scalar-minus-zero",
        "scalar-not-lowest-terms",
        "scalar-denominator-one",
        "scalar-denominator-leading-zero",
        "charp-coeff-not-reduced",
        "charp-coeff-negative",
        "charp-coeff-leading-zeros",
        "charp-coeff-zero",
        "char0-coeff-zero",
        "series-empty-degree",
        "poly-empty-degree",
    ],
)
def test_parsers_refuse_malformed_documents(parse):
    with pytest.raises(ValueError):
        parse()


@pytest.mark.parametrize(
    "argv",
    [["tables", "--p", "3", "--i", "1"], ["counit", "--char", "0", "--i", "1", "--k", "2"]],
    ids=["tables-json", "counit-text"],
)
def test_out_into_missing_directory_is_an_io_error(argv, tmp_path, capsys):
    code = main(argv + ["--out", str(tmp_path / "missing" / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("i/o error:")
    assert captured.out == ""


# Runs argv and prints its exit code and peak RSS (KiB) from os.wait4.  A
# process's peak RSS starts at that of the memory image it was exec'd from, so
# the child is started from this small interpreter, not from the test process.
_PEAK_RSS = """import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB, as Linux reports it")
def test_tables_p19_streams_the_document(tmp_path):
    """The 15 MB p = 19 document is written chunk by chunk: the process peaks
    far below the ~125 MB of rendering it to one string first."""
    argv = [sys.executable, "-m", "wittq", "tables", "--p", "19", "--i", "1", "--out", str(tmp_path / "t.json")]
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *argv],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=dict(os.environ, PYTHONPATH="src"),
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kib / 1024 < 64


class _Writes(io.StringIO):
    """A text stream that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


def test_tables_document_is_written_in_bounded_chunks(monkeypatch):
    """On any OS, the 1.2 MB p = 11 document reaches its stream in many writes
    of at most 256 KiB each, not as one string."""
    stream = _Writes()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["tables", "--p", "11", "--i", "1"]) == 0
    assert sum(stream.sizes) == len(stream.getvalue()) > 1 << 20
    assert len(stream.sizes) > 1
    assert max(stream.sizes) <= 1 << 18


ALL_I_P5 = ["verify", "--char", "p", "--p", "5", "--all-i", "--t", "all"]


@pytest.mark.parametrize("raising", [1, 3], ids=["computed", "direct"])
def test_all_i_reraises_an_exception_of_a_cell(raising, monkeypatch):
    # direction 1 raises, or it fails and direction 3, computed directly,
    # raises: the exception leaves main as it is
    import wittq.cli as cli
    from wittq.report import VerificationReport

    verify = cli.hopfp.verify_all_p

    def faulty(params, t_values=None):
        if params.i == raising:
            raise ArithmeticError(f"cell i={raising}")
        if params.i == 1:
            rep = VerificationReport()
            rep.add("injected", {"p": params.char, "i": params.i}, False, "forced failure")
            return rep
        return verify(params, t_values)

    monkeypatch.setattr(cli.hopfp, "verify_all_p", faulty)
    with pytest.raises(ArithmeticError, match=f"cell i={raising}"):
        main(ALL_I_P5)


# -- --all-i derives every direction from direction 1: the same bytes as direct cells


def _direct_all_i(p, t_values, fmt):
    """The --all-i output built from verify_witt_iso and a direct
    verify_all_p of every i, in i order."""
    from wittq.hopfp import verify_all_p
    from wittq.restricted import verify_witt_iso

    rep = verify_witt_iso(p)
    for i in range(1, p):
        rep.extend(verify_all_p(HopfParamsP(p, i), t_values))
    return rep.ok, str(rep) + "\n" if fmt == "text" else jsonio.dumps(jsonio.report_doc(rep))


def _cells_computed(monkeypatch, capsys, p, t, fmt):
    """Exit code, output and the directions verify_all_p ran for, of one
    --all-i run."""
    import wittq.cli as cli

    verify, ran = cli.hopfp.verify_all_p, []

    def recorded(params, t_values=None):
        ran.append(params.i)
        return verify(params, t_values)

    monkeypatch.setattr(cli.hopfp, "verify_all_p", recorded)
    argv = ["verify", "--char", "p", "--p", str(p), "--all-i", "--t", t, "--format", fmt]
    code, out = run_cli(argv, capsys)
    monkeypatch.setattr(cli.hopfp, "verify_all_p", verify)
    return code, out, ran


@pytest.mark.parametrize(
    "p, t, fmt",
    [(p, t, fmt) for p in (3, 5) for t in ("symbolic", "2", "all") for fmt in ("text", "json")] + [(7, "3", "json")],
)
def test_all_i_derived_cells_match_direct_cells(p, t, fmt, monkeypatch, capsys):
    code, out, ran = _cells_computed(monkeypatch, capsys, p, t, fmt)
    # every direction derived from direction 1, run once, whatever t is
    # requested: its twist certificate covers every residue
    assert ran == [1]
    t_values = (int(t),) if t.isdigit() else {"symbolic": (None,), "all": (None, *range(p))}[t]
    ok, want = _direct_all_i(p, t_values, fmt)
    assert (code, out) == (0, want) and ok


@pytest.mark.parametrize("faulty", [{1}, {1, 2, 3, 4}], ids=["cell-1", "every-cell"])
def test_all_i_failing_cell_computes_its_mirror_directly(faulty, monkeypatch, capsys):
    # a wrong coproduct coefficient (a fault) in the relation checks of the
    # faulty directions
    import wittq.cli as cli

    check = cli.hopfp._check_relations

    def relations(verdicts, params):
        check(verdicts, replace(params, fault=1) if params.i in faulty else params)

    monkeypatch.setattr(cli.hopfp, "_check_relations", relations)
    code, out, ran = _cells_computed(monkeypatch, capsys, 5, "all", "json")
    assert ran == [1, 2, 3, 4]
    ok, want = _direct_all_i(5, (None, *range(5)), "json")
    assert (code, out) == (1, want) and not ok
    failed = {e["params"]["i"] for e in json.loads(out)["entries"] if e["status"] == "fail"}
    assert failed == {str(i) for i in faulty}


def test_all_i_without_equivariance_computes_the_mirror_directly(monkeypatch, capsys, fresh_certificate):
    # direction 3's antipode doubled, in the relation checks, the twist
    # certificate, the Hopf block (through a fresh monomial memo, so that no
    # doubled image outlives the test) and the equivariance check: direction
    # 3 falls back, 2 and 4 are derived
    import wittq.cli as cli
    from wittq import series

    antipode = series.gen_antipode

    def doubled(d, k):
        return 2 * antipode(d, k) if d.i == 3 else antipode(d, k)

    for mod in (cli.hopfp, series):
        monkeypatch.setattr(mod, "gen_antipode", doubled)
    monkeypatch.setattr(series, "mono_antipode", series._extension(1, anti=True)(doubled))
    assert [cli.hopfp.phi_equivariant(HopfParamsP(5, 1), m) for m in (2, 3, 4)] == [True, False, True]
    code, out, ran = _cells_computed(monkeypatch, capsys, 5, "all", "text")
    assert ran == [1, 3]
    ok, want = _direct_all_i(5, (None, *range(5)), "text")
    assert (code, out) == (1, want) and not ok
    assert "[FAIL] antipode-commutator (i=3, " in out


def _phi_without_inverse(monkeypatch):
    # phi_m as D_k -> D_{mk}, without the m^-1
    from wittq import series

    def phi_mono(m):
        return series._extension(1, anti=False)(lambda d, k: d.series(1, [d.gen(m * k)]))

    monkeypatch.setattr(series, "phi_mono", phi_mono)


def _t_rescaled_by_m(monkeypatch):
    # the t of direction 1 rescaled by m rather than m^2
    import wittq.cli as cli

    def t_rescaled(s, m):
        return s._like(None, s.rank, [c * m**n for n, c in enumerate(s.coeffs)])

    monkeypatch.setattr(cli.hopfp, "_t_rescaled", t_rescaled)


@pytest.mark.parametrize("mutant", [_phi_without_inverse, _t_rescaled_by_m], ids=["no-inverse", "t-by-m"])
def test_all_i_with_a_wrong_phi_computes_every_direction_directly(mutant, monkeypatch, capsys):
    import wittq.cli as cli

    mutant(monkeypatch)
    for p in (3, 5, 7):
        assert not any(cli.hopfp.phi_equivariant(HopfParamsP(p, 1), m) for m in range(2, p)), p
    for p in (3, 5):
        code, out, ran = _cells_computed(monkeypatch, capsys, p, "all", "json")
        assert ran == list(range(1, p))
        ok, want = _direct_all_i(p, (None, *range(p)), "json")
        assert (code, out) == (0, want) and ok
