"""The README's library example, run on the README's graph document.

Each bare expression in the example is evaluated and its repr matched
against its trailing comment, where ``...`` matches anything.
"""

import ast
import json
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example(monkeypatch, tmp_path):
    readme = README.read_text(encoding="utf-8")
    doc = re.search(r"Graph document \(JSON\):\s*```json\n(.*?)```", readme, re.S).group(1)
    code = re.search(r"## Library\s*```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(doc, encoding="utf-8")
    lines, scope, checked = code.splitlines(), {"json": json}, []
    for stmt in ast.parse(code).body:
        text = ast.get_source_segment(code, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(text, scope)
            continue
        got = repr(eval(text, scope))
        want = lines[stmt.end_lineno - 1].split("#", 1)[1].strip()
        assert re.fullmatch(".*".join(map(re.escape, want.split("..."))), got), (text, want)
        checked.append(want)
    assert checked == ["[1, 30, 4, 18]", "2160", "BasisVerdict(..., is_basis=True)"]
