import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a comment line
class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring."""
        text = """a string that is
not a docstring"""
        return os.sep + text
'''


def test_blank_lines_comments_and_docstrings_are_left_out(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, class, def, the two lines of `text`, return
    assert code_lines.code_lines(path) == 6


def test_the_tool_prints_each_module_then_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    result = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines() == ["    6 a.py", "    2 b.py", "    8 total"]
