"""The Python examples of README.md run as they are written, so the
documented API cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for n, code in enumerate(blocks):
        exec(compile(code, f"{README.name} python block {n}", "exec"), {"__name__": "readme"})
