"""The README's examples, run: its Python block as code, its `$ medialq ...` transcripts through `cli.main`."""

import re
import shlex
from pathlib import Path

from medialq.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_the_library_example_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})


def test_the_cli_transcripts_are_what_the_cli_prints(capsys):
    # each transcript runs from its `$ medialq` line to a blank line or the end of the block
    transcripts = re.findall(r"^\$ medialq (.*?)\n(.*?\n)(?:\n|```)", README, re.S | re.M)
    assert len(transcripts) == 3
    for command, expected in transcripts:
        argv = shlex.split(command, comments=True)
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        # the README elides the crosscheck's list of class sizes
        out = re.sub(r'"class_sizes": \[[^]]*\]', '"class_sizes": [...]', out)
        assert out == expected, argv
