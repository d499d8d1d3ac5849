"""The README's library quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs(capsys):
    text = README.read_text()
    (tour,) = re.findall(r"## Library quick tour\s+```python\n(.*?)```", text, re.S)
    scope: dict = {}
    exec(compile(tour, "README.md quick tour", "exec"), scope)
    assert scope["pt"].k_star == 1.0
    assert scope["pt"].residual == 0.0
    assert float(capsys.readouterr().out) < 1e-6
