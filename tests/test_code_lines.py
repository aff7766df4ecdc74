"""``tools/code_lines.py``, the counter behind the library's tracked
size: its count on a snippet counted by hand, and its report over
``src/qstrat``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qstrat"

_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# code lines marked "# code", nine of them: the module, class and
# function docstrings, the comments and the blank lines do not count,
# and the string that is no docstring counts on each of its three lines
SNIPPET = '''"""Module docstring,
over two lines."""

# a comment line

import os  # code


class Box:  # code
    """Class docstring."""

    def size(self):  # code
        """Function docstring,
        over two lines."""
        text = """not a  # code
docstring, but a value  # code
"""  # code
        return len(text) + len(os.sep)  # code


def free():  # code
    return Box  # code
'''


def test_code_lines_gives_the_hand_count_of_a_snippet():
    assert sum("# code" in line for line in SNIPPET.splitlines()) == 9
    assert code_lines.code_lines(SNIPPET) == 9


def test_main_prints_each_library_file_and_their_sum(capsys):
    assert code_lines.main() == 0
    *rows, last = capsys.readouterr().out.splitlines()
    counts = {name: int(count) for count, name in map(str.split, rows)}
    paths = sorted(SRC.glob("*.py"))
    assert list(counts) == [path.name for path in paths]
    assert counts == {
        path.name: code_lines.code_lines(path.read_text(encoding="utf-8")) for path in paths
    }
    assert last.split() == [str(sum(counts.values())), "total"]
