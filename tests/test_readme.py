"""The README's documented API example runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (API)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("RateFit(")
