"""The README's "Library quick start" block runs as written and prints what
its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    block = re.search(r"## Library quick start\n.*?```python\n(.*?)```", README.read_text(),
                      re.S)
    assert block, "README has no Library quick start python block"
    exec(compile(block.group(1), str(README), "exec"), {})
    names, entry, status = capsys.readouterr().out.splitlines()
    assert names.startswith("[('X1', 1, 1), ('X2', 1, -1), ('X3', 2, 0),")
    assert (entry, status) == ("((3, 1, 1),)", "verified")
