import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "untested_lines.py"

spec = importlib.util.spec_from_file_location("untested_lines", TOOL)
untested_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(untested_lines)

SOURCE = '''"""Module docstring."""
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import json


def sign(x):
    """Function docstring."""
    if x < 0:
        return (-1 +
                0)
    return 1


sign(5)
'''


def test_each_statement_that_can_run_counts_by_its_first_line():
    # Left out: both docstrings and the import under TYPE_CHECKING.
    assert untested_lines.statement_lines(SOURCE) == {2, 4, 8, 10, 11, 13, 16}


def test_a_statement_is_untested_unless_its_first_line_was_hit():
    # 12 is the second line of the return on 11; 1 is a docstring.
    assert untested_lines.untested(SOURCE, {1, 2, 4, 8, 10, 12, 13, 16}) == [11]
    assert untested_lines.untested(SOURCE, set()) == [2, 4, 8, 10, 11, 13, 16]


def test_the_tracer_records_the_lines_run_in_the_files_it_watches(tmp_path):
    module = tmp_path / "watched" / "sample.py"
    module.parent.mkdir()
    module.write_text(SOURCE)
    sample = importlib.util.spec_from_file_location("sample", module)
    with untested_lines.LineTracer(module.parent) as tracer:
        sample.loader.exec_module(importlib.util.module_from_spec(sample))
    assert set(tracer.hits) == {str(module)}
    assert untested_lines.untested(SOURCE, tracer.hits[str(module)]) == [11]
