"""The examples and the Library block of README.md, run as written.

The curve and the abelian-variety instance examples each build with exit
0 through ``cli.main``.  The report example's ``module`` and ``checks`` are
those of the report built from the curve example; its ``instance`` is a
placeholder.  The Library block runs, and each of its lines that is an
expression with a comment gives the value the comment starts with (up to
its first colon).
"""

import ast
import json
import re
from pathlib import Path

from phinmod.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(lang: str) -> list:
    """The text of each fenced block of ``lang`` in README.md, in order."""
    return re.findall(r"^```%s\n(.*?)^```$" % lang, README, re.S | re.M)


def example(marker: str) -> str:
    """The one JSON block that holds ``marker``."""
    (text,) = [block for block in fenced("json") if marker in block]
    return text


def build(tmp_path, text: str) -> tuple:
    """(exit code, report as a dict) of ``phinmod build`` on ``text``."""
    path, out = tmp_path / "instance.json", tmp_path / "report.json"
    path.write_text(text, encoding="utf-8")
    code = main(["build", str(path), "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_instance_examples_build(tmp_path):
    for marker in ('"kind": "curve"', '"kind": "av"'):
        assert build(tmp_path, example(marker))[0] == 0, marker


def test_report_example_is_the_curve_example_report(tmp_path):
    text = example('"format": "phinmod-report-v1"')
    shown = json.loads(text.replace("{ ...canonical echo of the parsed instance... }", "null"))
    _, report = build(tmp_path, example('"kind": "curve"'))
    assert shown["instance"] is None
    assert (shown["module"], shown["checks"]) == (report["module"], report["checks"])


def test_library_block_gives_the_stated_values():
    (block,) = [b for b in fenced("python") if "from phinmod import" in b]
    lines = block.splitlines()
    namespace, checked = {}, 0
    for node in ast.parse(block).body:
        comment = lines[node.end_lineno - 1].partition("  # ")[2]
        if isinstance(node, ast.Expr) and comment:
            stated = ast.literal_eval(comment.partition(":")[0].strip())
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert value == stated, lines[node.lineno - 1]
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == 7
