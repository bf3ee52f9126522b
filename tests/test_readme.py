"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs_in_order(capsys):
    text = README.read_text()
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["sol"] is not None
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and float(printed[1]) < 1e-8
