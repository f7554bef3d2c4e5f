"""The README's examples run as written."""

import json
import re
from pathlib import Path

from finnet.cli import EXIT_OK, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def readme_block(after: str, lang: str) -> str:
    """The first fenced `lang` block after the text `after`."""
    found = re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, README.index(after))
    return found.group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(readme_block("## Library quick start", "python"), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9                  # ring4's 8 equilibria, then one membership test
    assert lines[0].startswith("0 ") and lines[-1] in ("True", "False")


def test_readme_scenario_simulates(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(readme_block("A scenario document names the network", "json"))
    assert main(["simulate", "--scenario", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"]["T"] == 100
