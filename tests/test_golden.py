"""Byte-identity of CLI and verifier output against recorded digests.

Each case runs in-process and its full output is hashed with SHA-256.  The
digests were recorded from the implementation before the t-series layer was
shared between the characteristics, that of the p = 7 grid (verify-p7-text)
before its p-powers were derived from the twist, that of the p = 7
residue-only grid (verify-p7-residue-json) before its commutators were, and
that of a faulty residue-only pass (witness-p-residues) while each residue
was still a direct pass of its own, before every pass ran at symbolic t; any
change to the bytes of a structure map, a table, a report or a mismatch
witness fails here.  Every JSON case also writes the same bytes through --out as to
stdout.
"""

import contextlib
import hashlib
import io
from dataclasses import replace

import pytest

from wittq import hopf0, hopfp
from wittq.cli import main

CLI_CASES = {
    "coproduct-0-json": ["coproduct", "--char", "0", "--i", "1", "--k", "0", "--order", "2", "--format", "json"],
    "coproduct-0-text": ["coproduct", "--char", "0", "--i", "2", "--k", "3", "--order", "3"],
    "antipode-0-json": ["antipode", "--char", "0", "--i", "1", "--k", "2", "--order", "3", "--format", "json"],
    "antipode-0-text": ["antipode", "--char", "0", "--i", "-1", "--k", "1", "--order", "2"],
    "counit-0-json": ["counit", "--char", "0", "--i", "1", "--k", "2", "--format", "json"],
    "counit-0-text": ["counit", "--char", "0", "--i", "3", "--k", "0"],
    "twist-json": ["twist", "--i", "1", "--order", "3", "--format", "json"],
    "twist-text": ["twist", "--i", "2", "--order", "2"],
    "cobracket-json": ["cobracket", "--i", "2", "--k", "3", "--format", "json"],
    "cobracket-text": ["cobracket", "--i", "1", "--k", "-1"],
    "verify-0-json": ["verify", "--char", "0", "--i", "1", "--order", "2", "--k-min", "-2", "--k-max", "2", "--format", "json"],
    "verify-0-text": ["verify", "--char", "0", "--i", "2", "--order", "3", "--k-min", "-1", "--k-max", "1"],
    "coproduct-p-json": ["coproduct", "--char", "p", "--p", "5", "--i", "2", "--k", "3", "--format", "json"],
    "coproduct-p-text": ["coproduct", "--char", "p", "--p", "3", "--i", "1", "--k", "2", "--t", "2"],
    "antipode-p-json": ["antipode", "--char", "p", "--p", "5", "--i", "2", "--k", "3", "--t", "symbolic", "--format", "json"],
    "antipode-p-text": ["antipode", "--char", "p", "--p", "3", "--i", "2", "--k", "0", "--t", "1"],
    "counit-p-json": ["counit", "--char", "p", "--p", "5", "--i", "1", "--k", "2", "--format", "json"],
    "counit-p-text": ["counit", "--char", "p", "--p", "3", "--i", "2", "--k", "0"],
    "tables-p3": ["tables", "--p", "3", "--i", "1"],
    "tables-p5": ["tables", "--p", "5", "--i", "3"],
    "verify-p-json": ["verify", "--char", "p", "--p", "3", "--all-i", "--t", "all", "--format", "json"],
    "verify-p-text": ["verify", "--char", "p", "--p", "5", "--i", "2", "--t", "1"],
    "verify-p7-text": ["verify", "--char", "p", "--p", "7", "--all-i", "--t", "all"],
    "verify-p7-residue-json": ["verify", "--char", "p", "--p", "7", "--all-i", "--t", "3", "--format", "json"],
}


def _witness_p() -> str:
    rep = hopfp.verify_relations_preserved(hopfp.HopfParamsP(3, 1), corrupt_term=1)
    return next(f"{e.identity}: {e.witness}" for e in rep.entries if not e.passed) + "\n"


def _witness_0() -> str:
    rep = hopf0.verify_hopf0(replace(hopf0.HopfParams(1, 2), fault=1), range(-1, 2))
    return next(f"{e.identity}: {e.witness}" for e in rep.entries if not e.passed) + "\n"


def _witness_p_residues() -> str:
    # every entry of a faulty pass at residues alone, 101 of 228 failing
    return hopfp.verify_all_p(replace(hopfp.HopfParamsP(5, 2), fault=1), (1, 3)).summary()


WITNESS_CASES = {"witness-p": _witness_p, "witness-0": _witness_0, "witness-p-residues": _witness_p_residues}

DIGESTS = {
    "antipode-0-json": "cf5c7812ae1a2528c6c8031b0e2add7e274c54c06cd6a9d5a7111c4085f8e2b5",
    "antipode-0-text": "f0c27e55ba15b977954b2908480ed064941970a4fd658ff5a824fafade29236b",
    "antipode-p-json": "fa10735e55b6ed7c9cb6ced88df7c0c1f8452d0d61aefcaf5fd1f73388ebe0ae",
    "antipode-p-text": "4f521e9ec1d98e6b91b39b7e814f40d78619fcdf11ca68203e5318f2cf91188f",
    "cobracket-json": "a844175d875c825bfa7c0de34a6333dfbebc49068e17f66d8c0bf4ab71b268d5",
    "cobracket-text": "5f646a1aac62f51896c2d9e3c4cc6b4278463954cdaca2b8356d30499483706e",
    "coproduct-0-json": "966187b585aabff10cb1eacfb7927ea943c0847b4235bb3bf16bc92b0d6e3663",
    "coproduct-0-text": "3ac13ea5134c23fe4812b3a429b01470e24d882aca150b1ce0583a7b198a3e12",
    "coproduct-p-json": "620c9517ca66c173406448d52acb551a747b2631780814057ed6ac89462f8ab0",
    "coproduct-p-text": "afdd2b5f264667e48c693d15fec8fde9f033d3f1df6b4f426730fe25746ea342",
    "counit-0-json": "8deb8d8d88a2505114ae8188ae1296e2ff076531f50ebf2b3a06c9e3adce547d",
    "counit-0-text": "47ba33c323fcbdb548e41f7b9d9d282491f7e095cef45e694fcd466070a47766",
    "counit-p-json": "a1247c44a44719cdaeeb46f8643621df0963ce29a64b66bb3ef9a51d3d4f2816",
    "counit-p-text": "47ba33c323fcbdb548e41f7b9d9d282491f7e095cef45e694fcd466070a47766",
    "tables-p3": "52fdd59090441a240999fe875d96808b19d1a3ffe37189cf149b5640b9a7b645",
    "tables-p5": "ece4e0efd72ca040f5cbc24a4648b0610bc8579bd7a51c6c779dbd54fca069aa",
    "twist-json": "3599893731133765f68f547c9096fc779e70c102038e67bc9b245dfa217466f9",
    "twist-text": "8b40744ecf14cf3e31bb3f626d9e69785c803901faf2f6dd7ce0d047343aca60",
    "verify-0-json": "5f4ba146105ca523b7da219d2b1e7560b7c5622c590ce9293cef92868c115f6f",
    "verify-0-text": "565cb2c4c1f6be4c7d24b4390d59261e6da81942309ecfaf05784556705c7707",
    "verify-p-json": "901db53fe247de5d8fb4a765d6e01768cb9ffacf49c1b039531aea9d3b613b1c",
    "verify-p-text": "c420abb96322d55c53ec80edeeec595d8e937655e96003120badc310d7b1cf58",
    "verify-p7-text": "01420f6708352b26cf2366951af62b14a87ef38c75d4addad3853abbc90fd2e5",
    "verify-p7-residue-json": "afcdf7870a3e40e9dcbf4cfc9932905625467040bc431bf08a5870e2f815155e",
    "witness-0": "c5b50e50f0e4087e4559a61c4d7b1ba5eeb604c68e175de6a7802d5402c84d35",
    "witness-p": "5c50006872a5310b0b2e5a54d17fa29c33b628219dd88c2ed8a91c02003026c4",
    "witness-p-residues": "7181d48b52b0a522f40a96e6a0ee16a86a88f5eaf2dd3f1b275fa1f32952e514",
}


def _run(name: str) -> str:
    if name in WITNESS_CASES:
        return WITNESS_CASES[name]()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(CLI_CASES[name])
    return f"exit {code}\n" + buf.getvalue()


@pytest.mark.parametrize("name", sorted(CLI_CASES) + sorted(WITNESS_CASES))
def test_output_bytes_match_recorded_digest(name):
    digest = hashlib.sha256(_run(name).encode("utf-8")).hexdigest()
    assert digest == DIGESTS[name]


JSON_CASES = sorted(name for name, argv in CLI_CASES.items() if "json" in argv or argv[0] == "tables")


@pytest.mark.parametrize("name", JSON_CASES)
def test_out_file_bytes_match_stdout(name, tmp_path):
    path = tmp_path / "out.json"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(CLI_CASES[name] + ["--out", str(path)])
    assert buf.getvalue() == ""
    assert f"exit {code}\n".encode() + path.read_bytes() == _run(name).encode("utf-8")
