"""The Python examples and the CLI lines of README.md run as they are
written, so the documented API cannot drift from the code."""

import re
import shlex
from pathlib import Path

from wittq.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for n, code in enumerate(blocks):
        exec(compile(code, f"{README.name} python block {n}", "exec"), {"__name__": "readme"})


def test_readme_cli_lines_exit_0(tmp_path, monkeypatch):
    # tables writes its --out file into the working directory
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("wittq ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
