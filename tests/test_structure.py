"""Structure rules over the source of finkey: each decision lives in one
place.  Every rule is a function of source text, so each test runs it on
the package and on a scratch string it must reject."""

import ast
import re
from pathlib import Path

import finkey

SRC = Path(finkey.__file__).parent


def read(name: str) -> str:
    return (SRC / name).read_text(encoding="utf-8")


def json_loads_outside_corpus(name: str, text: str) -> list[str]:
    """Lines of module ``name`` that call ``json.load``/``json.loads``;
    only ``corpus.py`` may, where ``finkey.corpus.parse_json`` is the one
    JSON reader."""
    if name == "corpus.py":
        return []
    return [f"{name}:{n}: {line}" for n, line in enumerate(text.split("\n"), start=1)
            if re.search(r"json\.load", line)]


def second_value_error_handlers(text: str) -> list[str]:
    """The lines of ``cli.py`` that handle a ValueError, after the first;
    ``finkey.cli._build`` holds the one error mapping."""
    return [line for line in text.split("\n") if re.search(r"except.*ValueError", line)][1:]


def second_schema_names(text: str) -> list[str]:
    """The lines of ``cli.py`` that name ``"dataset-2"`` when it is named
    more than once; ``finkey.cli._load_docs_strict`` chooses the schema."""
    if text.count('"dataset-2"') <= 1:
        return []
    return [line for line in text.split("\n") if '"dataset-2"' in line]


def head_products_outside_logits(path: str, text: str) -> list[str]:
    """Every ``X @ head.w*`` product in ``path`` that is not inside a
    function named ``logits``; each head's logits come from its
    ``Task.logits``."""
    bad = []

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            right = getattr(child, "right", None)
            if (isinstance(child, ast.BinOp) and isinstance(child.op, ast.MatMult)
                    and isinstance(right, ast.Attribute) and isinstance(right.value, ast.Name)
                    and right.value.id == "head" and right.attr.startswith("w")
                    and function != "logits"):
                bad.append(f"{path}:{child.lineno}: {ast.unparse(child)} in {function}")
            walk(child, function)

    walk(ast.parse(text), None)
    return bad


def test_one_json_reader():
    bad = [line for path in sorted(SRC.glob("*.py"))
           for line in json_loads_outside_corpus(path.name, path.read_text(encoding="utf-8"))]
    assert not bad, "json.load outside finkey/corpus.py: read JSON with finkey.corpus.parse_json"
    assert json_loads_outside_corpus("cli.py", "import json\nconfig = json.loads(raw)\n")
    assert json_loads_outside_corpus("tasks.py", "with open(p) as f:\n    x = json.load(f)\n")
    assert not json_loads_outside_corpus("corpus.py", "value = json.loads(line)\n")


def test_one_error_mapping():
    assert not second_value_error_handlers(read("cli.py")), (
        "a second ValueError handler in finkey/cli.py: map library errors with finkey.cli._build")
    scratch = ("try:\n    a()\nexcept (KeyError, ValueError) as e:\n    pass\n"
               "try:\n    b()\nexcept ValueError:\n    pass\n")
    assert second_value_error_handlers(scratch) == ["except ValueError:"]


def test_one_schema_rule():
    assert not second_schema_names(read("cli.py")), (
        'finkey/cli.py names "dataset-2" more than once: choose the schema in '
        "finkey.cli._load_docs_strict")
    assert second_schema_names('a = "dataset-2" if mrc else "dataset-1"\nb = "dataset-2"\n')
    assert second_schema_names('pick("dataset-2", "dataset-2")\n')


def test_one_head_math_path():
    bad = head_products_outside_logits("finkey/tasks.py", read("tasks.py"))
    assert not bad, ("a product with head.w* outside a logits method: take a head's logits "
                     f"from its Task.logits: {bad}")
    scratch = ("class T:\n"
               "    def logits(self, head, h):\n        return h @ head.w\n"
               "    def predict(self, head, h):\n        return h[:, 0] @ head.w_out\n")
    assert head_products_outside_logits("scratch.py", scratch) == [
        "scratch.py:5: h[:, 0] @ head.w_out in predict"]
