"""scripts/code_lines.py, the counter every code-line figure quotes, on the
layouts it must tell apart."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a comment after code


# a comment line
def f(x):
    """Docstring."""  # a comment after a docstring
    text = """a string
    on two lines"""
    "a string statement"
    return (math.sqrt(x),
            text)
'''


def test_counts_code_and_leaves_out_docstrings_comments_and_blanks():
    # import, def, the two lines of the assigned string, return and its
    # continuation: 6 of the 14 lines
    assert code_lines.code_lines(SOURCE) == 6


def test_counts_the_package_per_module(capsys):
    assert code_lines.main([str(ROOT / "src" / "asymptotica")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {name: int(count.replace(",", "")) for name, count in rows}
    assert counts["total"] == sum(v for k, v in counts.items() if k != "total")
    assert {"__init__", "integrator", "msode"} <= set(counts)
