"""README's Python blocks and `roac0` commands run as printed."""

import re
import shlex
from pathlib import Path

from roac0.cli import main

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


def test_readme_commands_exit_0(tmp_path):
    shell = "".join(re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S))
    commands = [shlex.split(line) for line in re.findall(r"^roac0 .*$", shell, flags=re.M)]
    assert commands
    for argv in commands:
        # in-process, with the data files written under tmp_path
        argv = [str(tmp_path) if arg == "out/" else arg for arg in argv[1:]]
        assert main(argv) == 0, argv
