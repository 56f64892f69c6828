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


def nodes_in_functions(text: str):
    """Every ast node of ``text`` but the function definitions, with the name
    of the innermost function around it (None at module level)."""

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            yield child, function
            yield from walk(child, function)

    return walk(ast.parse(text), None)


def head_products_outside_logits(path: str, text: str) -> list[str]:
    """Every ``X @ head.w*`` product in ``path`` that is not inside a
    function named ``logits``; each head's logits come from its
    ``Task.logits``."""
    bad = []
    for node, function in nodes_in_functions(text):
        right = getattr(node, "right", None)
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                and isinstance(right, ast.Attribute) and isinstance(right.value, ast.Name)
                and right.value.id == "head" and right.attr.startswith("w")
                and function != "logits"):
            bad.append(f"{path}:{node.lineno}: {ast.unparse(node)} in {function}")
    return bad


def length_rule_outside_encoder(name: str, text: str) -> list[str]:
    """Lines of module ``name`` that name a part of the inference length
    rule; only ``encoder.py``, which defines it, and ``training.py``, which
    cuts its training batches by it, may."""
    if name in ("encoder.py", "training.py"):
        return []
    return [f"{name}:{n}: {line}" for n, line in enumerate(text.split("\n"), start=1)
            if re.search(r"\b(inference_length|_row_lengths|_LENGTH_MULTIPLE)\b", line)]


_WRITE_MODE = re.compile(r"[rbt+]*[wax][rwaxbt+]*")


def file_writes_outside_write_atomic(path: str, text: str) -> list[str]:
    """Every call in ``path`` that opens a file for writing (``open`` with a
    ``w``, ``a`` or ``x`` mode, ``write_text``, ``write_bytes``) outside a
    function named ``write_atomic``, finkey's one file writer."""
    bad = []
    for node, function in nodes_in_functions(text):
        if not isinstance(node, ast.Call) or function == "write_atomic":
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        modes = [*node.args, *(k.value for k in node.keywords if k.arg == "mode")]
        if name in ("write_text", "write_bytes") or name == "open" and any(
            isinstance(m, ast.Constant) and isinstance(m.value, str)
            and _WRITE_MODE.fullmatch(m.value) for m in modes
        ):
            bad.append(f"{path}:{node.lineno}: {ast.unparse(node)} in {function}")
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


def test_one_length_rule():
    bad = [line for path in sorted(SRC.glob("*.py"))
           for line in length_rule_outside_encoder(path.name, path.read_text(encoding="utf-8"))]
    assert not bad, ("the inference length rule named outside finkey/encoder.py and "
                     f"finkey/training.py: take a group's length from its hidden states: {bad}")
    scratch = "t = inference_length(batch.mask[k : k + 1], batch.mask.shape[1])\n"
    assert length_rule_outside_encoder("tasks.py", scratch)
    assert length_rule_outside_encoder("evaluation.py", "from .encoder import _LENGTH_MULTIPLE\n")
    assert length_rule_outside_encoder("cli.py", "n = _row_lengths(mask, 8).max()\n")
    assert not length_rule_outside_encoder("encoder.py", scratch)
    assert not length_rule_outside_encoder("tasks.py", "t = my_inference_length_2\n")


def test_one_file_writer():
    bad = [line for path in sorted(SRC.glob("*.py"))
           for line in file_writes_outside_write_atomic(path.name,
                                                        path.read_text(encoding="utf-8"))]
    assert not bad, f"a file written outside finkey.corpus.write_atomic: {bad}"
    scratch = ("def save(docs, path):\n"
               "    with path.open(\"w\", encoding=\"utf-8\") as fh:\n        fh.write(docs)\n"
               "    open(path, mode=\"ab\")\n    open(path, \"x\")\n"
               "    Path(path).write_text(docs)\n    path.write_bytes(b\"\")\n"
               "    open(path)\n    path.open(\"rb\")\n"
               "def write_atomic(path, chunks):\n    with path.open(\"wb\") as fh:\n        pass\n")
    assert [line.split(":")[1] for line in file_writes_outside_write_atomic("s.py", scratch)] == [
        "2", "4", "5", "6", "7"]
