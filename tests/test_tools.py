import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    (tmp_path / "snippet.py").write_text(
        '"""A module docstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """A docstring\n'
        '    over two lines."""\n'
        '    s = """a string\n'
        '    that is code"""  # and a comment\n'
        "    return x\n"
    )
    out = subprocess.run([sys.executable, os.path.join(TOOLS, "code_lines.py"), "snippet.py"],
                         cwd=tmp_path, capture_output=True, text=True, check=True).stdout
    assert out == "4 snippet.py\n4 total\n"
