"""Specs generated from the query table, and the places that list query kinds.

``specfile.QUERY_KEYS`` is the one list of query kinds and their keys: the
CLI's handlers and README's table must name the same ones, and every spec
built from the table's keys must parse and run to a documented answer.
"""
import ast
import inspect
import pathlib
import random
import re
import textwrap

from leafconn import cli
from leafconn.specfile import QUERY_KEYS

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def dispatch_kinds():
    tree = ast.parse(textwrap.dedent(inspect.getsource(cli._Runner.dispatch)))
    (table,) = [node for node in ast.walk(tree) if isinstance(node, ast.Dict)]
    return {key.value for key in table.keys}


def readme_rows():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| kind | required keys"))
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        kind, required, optional = [cell.strip() for cell in line.strip("|").split("|")][:3]
        (name,) = re.findall(r"`([^`]+)`", kind)
        rows[name] = (set(re.findall(r"`([^`]+)`", required)), set(re.findall(r"`([^`]+)`", optional)))
    return rows


def test_query_kinds_are_listed_once():
    assert dispatch_kinds() == set(QUERY_KEYS)
    table = {
        kind: ({k for k, (need, _) in keys.items() if need}, {k for k, (need, _) in keys.items() if not need})
        for kind, keys in QUERY_KEYS.items()
    }
    assert readme_rows() == table


# Fixed definitions: two integral ideals of the bivector (origin, axis), one
# ideal that is not integral (line), tensors of grades 0-2, a Lie algebra that
# fails the Jacobi identity (bad), and no section named "nowhere".
DEFINITIONS = """\
[variables]
x, y

[bivector]
x ^ y = x

[ideal origin]
x
y

[ideal axis]
x

[ideal line]
y

[multivector s]
d/dx + x * d/dy

[multivector t]
d/dx ^ d/dy

[multivector u]
x

[form a]
dy

[form b]
x * dx

[lie_algebra heis]
basis = e, f, h
[e, f] = h

[lie_algebra sl2]
basis = e, f, h
[h, e] = 2*e
[h, f] = -2*f
[e, f] = h

[lie_algebra bad]
basis = e, f, h
[e, f] = e
[f, h] = f
[e, h] = h
"""

TENSORS = ["s", "t", "u", "nowhere"]
VALUES = {
    "ideal": ["origin", "axis", "line", "nowhere"],
    "alpha": ["a", "b", "nowhere"],
    "section": TENSORS,
    "left": TENSORS,
    "right": TENSORS,
    "algebra": ["heis", "sl2", "bad", "nowhere"],
    "point": ["0, 0", "(0, 1)", "1, 0", "(1/2, 0)", "0, 0, 0"],
    "grade": ["0", "1", "2"],
    "degree": ["0", "1"],
    ("char-class", "ideal"): ["h", "e; f", "e; 2*f", "h; 0", "0", "q", "e + h", "e; f; h"],
    "projection": ["0, 0, 0; 0, 0, 0; 0, 0, 1", "1, 0, 0; 0, 1, 0; 0, 0, 1", "1, 0; 0, 1"],
}


def values(kind, key):
    return VALUES.get((kind, key)) or VALUES[key]


def generated_spec(rng):
    blocks = [DEFINITIONS]
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(sorted(QUERY_KEYS))
        lines = [f"[query {kind}]"]
        for key, (need, _) in QUERY_KEYS[kind].items():
            if need or rng.random() < 0.5:
                lines.append(f"{key} = {rng.choice(values(kind, key))}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def test_every_table_key_has_values():
    for kind, keys in QUERY_KEYS.items():
        for key in keys:
            assert values(kind, key)


def test_generated_specs_run_to_a_documented_answer(tmp_path):
    rng = random.Random(8)
    spec, out = tmp_path / "generated.spec", tmp_path / "generated.report"
    codes = set()
    for _ in range(100):
        text = generated_spec(rng)
        spec.write_text(text, encoding="utf-8")
        code = cli.main(["--spec", str(spec), "--out", str(out), "--degree-bound", "1"])
        assert code in (0, 2), text
        codes.add(code)
    assert 2 in codes
