"""The README's examples run as written.

Its ``python`` block runs statement by statement, and every
``print(...)  # value`` line must print its comment. Every ``mtslab``
line of the "Command line" block runs through ``cli.main`` in a temporary
directory, with the README's sweep config as ``sweep.json``, and must
exit 0.
"""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

from mtslab.cli import main

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language, text=_README):
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def _section(title):
    return _README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_the_library_example_prints_its_comments():
    (source,) = _blocks("python", _section("Library entry points"))
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
        code, _, comment = lines[node.end_lineno - 1].partition("  # ")
        if code.startswith("print(") and comment:
            assert out.getvalue().strip() == comment.strip(), code
            checked += 1
    assert checked >= 1


def test_the_command_line_example_runs(tmp_path, monkeypatch, capsys):
    (commands,) = _blocks("sh", _section("Command line"))
    (config,) = [block for block in _blocks("json") if '"algorithms"' in block]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.json").write_text(config)
    argvs = [shlex.split(line)[1:] for line in commands.splitlines()
             if line.startswith("mtslab ")]
    assert len(argvs) == 4
    for argv in argvs:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
