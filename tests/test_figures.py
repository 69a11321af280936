"""Golden figure data: every figures/figN.cfg, run through the subcommand
that figures/Makefile names for it, reproduces figures/figN.csv byte for byte."""
import io
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qring.cli import run

FIGURES = Path(__file__).resolve().parent.parent / "figures"
RECIPES = dict(re.findall(r"^(fig\d+)\.csv: \1\.cfg\n\tqring (\S+) --config",
                          (FIGURES / "Makefile").read_text(), re.M))


def test_every_config_has_a_recipe():
    assert sorted(RECIPES) == sorted(p.stem for p in FIGURES.glob("fig*.cfg"))
    assert len(RECIPES) == 8


# both spellings of the flag read the file: --config PATH and --config=PATH
@pytest.mark.parametrize("fig, joined", [
    *(pytest.param(fig, False, id=fig) for fig in sorted(RECIPES)),
    *(pytest.param(fig, True, id=f"{fig}-equals") for fig in sorted(RECIPES))])
def test_figure_regenerates(fig, joined):
    path = str(FIGURES / f"{fig}.cfg")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([RECIPES[fig], *([f"--config={path}"] if joined else ["--config", path])])
    assert code == 0 and err.getvalue() == ""
    assert out.getvalue().encode() == (FIGURES / f"{fig}.csv").read_bytes()
