import json
import os
import subprocess
import sys

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


def test_scalar_str_roundtrip():
    from fractions import Fraction

    for s in ("0", "5", "-17", "3/4", "-1/8"):
        assert jsonio.scalar_str(jsonio.parse_scalar(s)) == s
    assert jsonio.scalar_str(Fraction(6, 4)) == "3/2"


ALL_I_P3 = ["verify", "--char", "p", "--p", "3", "--all-i", "--t", "all"]


@pytest.fixture
def pools(monkeypatch):
    """Count the fork contexts the CLI asks for (one per process pool)."""
    import multiprocessing

    made = []
    get_context = multiprocessing.get_context

    def counted(method=None):
        made.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", counted)
    return made


def _no_pool(monkeypatch):
    import multiprocessing

    def refuse(method=None):
        raise AssertionError("no process pool expected")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)


def _run_with_cpus(monkeypatch, capsys, cpus, argv):
    import wittq.cli as cli

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    return run_cli(argv, capsys)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_all_i_pool_matches_serial(fmt, monkeypatch, capsys, pools):
    argv = ALL_I_P3 + ["--format", fmt]
    serial = _run_with_cpus(monkeypatch, capsys, 1, argv)
    assert pools == []
    pooled = _run_with_cpus(monkeypatch, capsys, 2, argv)
    assert pools == ["fork"]
    assert pooled == serial
    assert serial[0] == 0


def test_all_i_pool_reraises_a_failing_cell(monkeypatch, capsys, pools):
    import wittq.cli as cli

    verify = cli.hopfp.verify_all_p

    def failing(params, t_values=(None,)):
        if params.i == 2:
            raise ArithmeticError("cell i=2")
        return verify(params, t_values)

    monkeypatch.setattr(cli.hopfp, "verify_all_p", failing)
    raised = []
    for cpus in (1, 2):
        with pytest.raises(Exception) as exc:
            _run_with_cpus(monkeypatch, capsys, cpus, ALL_I_P3)
        raised.append(exc.type)
    assert pools == ["fork"]
    assert raised == [ArithmeticError, ArithmeticError]


def test_single_i_never_makes_a_pool(monkeypatch, capsys):
    _no_pool(monkeypatch)
    code, out = _run_with_cpus(monkeypatch, capsys, 2, ["verify", "--char", "p", "--p", "3", "--i", "2", "--t", "all"])
    assert code == 0
    assert out.endswith(" 0 failures\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_all_i_without_fork_runs_serially(fmt, monkeypatch, capsys):
    import multiprocessing

    argv = ALL_I_P3 + ["--format", fmt]
    serial = _run_with_cpus(monkeypatch, capsys, 1, argv)
    _no_pool(monkeypatch)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"])
    assert _run_with_cpus(monkeypatch, capsys, 2, argv) == serial
