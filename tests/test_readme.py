"""The README's library example runs as written, and its CLI examples print what it says."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

from sekit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["ok"] and namespace["witness"] is not None
    assert "#taut." in capsys.readouterr().out.splitlines()


def _said(readme: str, command: str) -> str:
    """What the README says `command` prints: its trailing comment, or the comment line below it."""
    found = re.search(rf"^{re.escape(command)}(?:[ \t]+# |\n# )(.*)$", readme, re.MULTILINE)
    assert found, f"the README has no line {command!r} with its output"
    return found[1]


def test_readme_cli_examples_print_what_they_say(capsys, tmp_path, monkeypatch):
    readme = README.read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SEKIT_ENUM_CAP", raising=False)

    def run(command: str) -> tuple[int, str]:
        code = main(shlex.split(command)[1:])
        return code, capsys.readouterr().out

    command = 'sekit models "p :- not q."'
    assert run(command) == (0, _said(readme, command) + "\n")
    for command in ('sekit canon "p :- p, q."', 'sekit canon "p; not q :- q."'):
        said = re.fullmatch(r'prints "(.*)"', _said(readme, command))
        assert said and run(command) == (0, said[1] + "\n")
    assert 'sekit models "p." --format json > fact.json\n' in readme
    code, document = run('sekit models "p." --format json')
    (tmp_path / "fact.json").write_text(document, encoding="utf-8")
    command = "sekit induce fact.json"
    assert run(command) == (0, _said(readme, command).replace(" / ", "\n") + "\n")
    command = "sekit explore classes --size 2"
    assert run(command) == (0, _said(readme, command) + "\n")
