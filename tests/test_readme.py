"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == (
        "[[Fraction(1, 3), Fraction(1, 6), Fraction(0, 1)], "
        "[Fraction(1, 6), Fraction(1, 3), Fraction(0, 1)], "
        "[Fraction(0, 1), Fraction(0, 1), Fraction(1, 2)]]\n"
    )
