"""The one writer: every output file of the package goes through reports.write_lines."""

from __future__ import annotations

import ast
from pathlib import Path

from cardcohort import reports

SRC = Path(reports.__file__).parent


def _mode(call: ast.Call):
    """The mode argument of an ``open`` call: a string, None when absent, or the node."""
    node = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    return node.value if isinstance(node, ast.Constant) else node


class _Writes(ast.NodeVisitor):
    """(enclosing function, call) for each call that writes a file."""

    def __init__(self):
        self.scope = ["<module>"]
        self.found = set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name == "open":
            mode = _mode(node)
            if mode is not None and (not isinstance(mode, str) or set(mode) & set("wax+")):
                self.found.add((self.scope[-1], name))
        elif name in ("dump", "write_text", "write_bytes"):
            self.found.add((self.scope[-1], name))
        self.generic_visit(node)


def test_write_lines_is_the_only_code_that_opens_a_file_for_writing():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        writes = _Writes()
        writes.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.update((path.name, *w) for w in writes.found)
    assert found == {("reports.py", "write_lines", "open")}


def test_blocks_stream_in_order_as_utf8_with_lf(tmp_path):
    path = tmp_path / "out.csv"
    reports.write_lines(str(path), ["a,b"], (f"{i},é" for i in range(2)), [], ["Sum,2"])
    assert path.read_bytes() == "a,b\n0,é\n1,é\nSum,2\n".encode("utf-8")


def test_json_and_metric_tables(tmp_path):
    reports.write_json(str(tmp_path / "doc.json"), {"a": [1]})
    assert (tmp_path / "doc.json").read_text() == '{\n "a": [\n  1\n ]\n}\n'
    reports.write_metrics(str(tmp_path / "m.csv"), [("n", 3), ("pct", "")])
    assert (tmp_path / "m.csv").read_text() == "metric,value\nn,3\npct,\n"
