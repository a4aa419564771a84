"""The size counter that the ROADMAP's size lines quote."""

import subprocess
import sys

import code_size

SNIPPET = '''"""Module docstring,
over two lines."""

# a comment line
X = 1  # code with a comment


def f(a):
    """One-line docstring."""
    s = """a string that is
no docstring"""
    return (a +
            len(s))


class C:
    """Class docstring."""

    y = 'text'
'''


def test_code_lines_skip_comments_docstrings_and_blank_lines():
    """19 lines: the code lines are ``X = 1``, the ``def``, the two lines
    of the string that is no docstring, the two lines of the ``return``,
    the ``class`` and ``y``."""
    assert code_size.code_size(SNIPPET) == (19, 8)
    assert code_size.code_size("") == (0, 0)
    assert code_size.code_size('"""Only a docstring."""\n') == (1, 0)


def test_the_script_prints_both_counts_of_all_files(tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("Z = 2\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    done = subprocess.run([sys.executable, code_size.__file__, str(tmp_path)],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "lines 21 code 9\n"
