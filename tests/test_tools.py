import hashlib
import os
import subprocess
import sys

from indexify.lang.ast import STR

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


def test_artifact_digest_hashes_every_redex_list_in_call_order(monkeypatch, fig4a_program,
                                                               fig5_gardens):
    # a copy, since importing the tool prepends its src/ and perfbench/
    monkeypatch.setattr(sys, "path", [TOOLS] + sys.path)
    import artifact_digest

    from indexify import rewrite
    from indexify.iot import memoise_all

    cfg = rewrite.RewriteConfig({STR}, {"strstr"}, fig5_gardens,
                                memoise_all(fig5_gardens, {"strstr"}))
    find, apply = rewrite.find_redexes, rewrite.apply_rule
    with artifact_digest.rewriting_recorded() as tally:
        rewrite.normalize(fig4a_program, cfg)
    assert (rewrite.find_redexes, rewrite.apply_rule) == (find, apply)

    scans = []

    def scan(p, c):
        scans.append(find(p, c))
        return scans[-1]

    monkeypatch.setattr(rewrite, "find_redexes", scan)
    rewrite.normalize(fig4a_program, cfg)
    h = hashlib.sha256()
    for redexes in scans:
        h.update(repr(redexes).encode())
    assert tally == {"find_redexes": len(scans), "apply_rule": 6, "redexes": h.hexdigest()}
