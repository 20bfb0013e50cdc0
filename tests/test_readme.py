"""The README's quick start runs as documented, its scenario file loads
and its CSV columns match."""

import contextlib
import io
import re
import warnings
from pathlib import Path

from surgeshare.scenarios import load_scenario, save_scenario
from surgeshare.solver import DESIGN_CSV_COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs():
    code = _quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    # A print with a comment shows the value the comment gives first.
    for line, shown in zip(prints, printed):
        if "#" in line:
            assert line.split("#", 1)[1].strip().startswith(shown), (line, shown)


def test_readme_design_csv_columns_match_the_writer():
    text = " ".join(README.read_text().split())
    listed = re.search(r"write the same design CSV: `([^`]*)`", text).group(1)
    assert tuple(c.strip() for c in listed.split(",")) == DESIGN_CSV_COLUMNS


def test_readme_scenario_file_loads_and_round_trips(tmp_path):
    text = README.read_text()
    section = text[text.index("## Scenario files"):]
    example = tmp_path / "example.ini"
    example.write_text(re.search(r"```ini\n(.*?)```", section, re.S).group(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sc = load_scenario(str(example))
    saved = tmp_path / "saved.ini"
    save_scenario(sc, str(saved))
    assert load_scenario(str(saved)) == sc
