import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring,
on two lines."""

import os  # a comment on a code line

# a comment line


def f(x):
    """Docstring."""
    s = """a string that is
    code"""
    return (x,
            s)
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # code: import, def, the assignment's two lines, the return's two
    assert src_lines.count(path) == (len(SAMPLE.splitlines()), 6)


def test_main_prints_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert src_lines.main(["src_lines.py", str(tmp_path)]) == 0
    total = len(SAMPLE.splitlines()) + 1
    assert capsys.readouterr().out == \
        f"{total} total lines, 7 code-only lines in 2 files under {tmp_path}\n"
