"""README's Python blocks run, in order and in one namespace, as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text()
    blocks = list(re.finditer(r"```python\n(.*?)```", text, flags=re.S))
    assert blocks
    namespace: dict = {}
    for block in blocks:
        # padded with newlines so a traceback names the README's own line
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), namespace)
