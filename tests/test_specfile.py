from fractions import Fraction

import pytest

from leafconn.cli import main
from leafconn.specfile import SpecFileError, parse_spec_text

F = Fraction

MINIMAL = """\
# comment lines and blanks are skipped

[variables]
x, y

[bivector]
x ^ y = x

[ideal origin]
x
y

[multivector s]
d/dx
x * d/dy

[form a]
dy

[lie_algebra g]
basis = e, f, h
[e, f] = h

[query flat-sections]
ideal = origin
point = 0, 0
grade = 1
"""


def fails_with(text, fragment, line=None):
    with pytest.raises(SpecFileError) as info:
        parse_spec_text(text)
    assert fragment in str(info.value)
    if line is not None:
        assert info.value.line == line
        assert f"line {line}:" in str(info.value)
    return info.value


def test_full_document():
    doc = parse_spec_text(MINIMAL)
    assert doc.context is not None and len(doc.context) == 2
    assert str(doc.bivector) == "x * d/dx ^ d/dy"
    assert set(doc.ideals) == {"origin"}
    assert str(doc.multivectors["s"]) == "d/dx + x * d/dy"
    assert str(doc.forms["a"]) == "dy"
    assert doc.lie_algebras["g"].labels == ("e", "f", "h")
    assert doc.lie_algebras["g"].relations == {("e", "f"): {"h": F(1)}}
    (query,) = doc.queries
    assert query.kind == "flat-sections"
    assert query.options["ideal"] == "origin"
    assert query.options["point"] == (F(0), F(0))
    assert query.options["grade"] == 1


def test_content_before_section():
    fails_with("x, y\n", "content before the first section header", line=1)


def test_duplicate_variables():
    fails_with("[variables]\nx\n\n[variables]\ny\n", "duplicate [variables]", line=4)


def test_bivector_requires_declared_order():
    fails_with(
        "[variables]\nx, y\n[bivector]\ny ^ x = 1\n",
        "declared order",
        line=4,
    )
    fails_with(
        "[variables]\nx, y\n[bivector]\nx ^ y = 1\nx ^ y = x\n",
        "duplicate bivector component",
        line=5,
    )


def test_bivector_needs_variables_first():
    fails_with("[bivector]\nx ^ y = 1\n", "variables")


def test_empty_named_sections_rejected():
    fails_with("[variables]\nx\n[ideal thing]\n", "has no generators", line=3)


def test_section_names_are_plain_identifiers():
    fails_with("[variables]\nx\n[ideal my-name]\nx\n", "plain name")
    fails_with("[variables]\nx\n[ideal]\nx\n", "name")


def test_lie_algebra_grammar():
    fails_with("[lie_algebra g]\n[e, f] = h\n", "basis", line=2)
    fails_with("[lie_algebra g]\nbasis = e, f\n[e, e] = f\n", "itself", line=3)
    fails_with("[lie_algebra g]\nbasis = e, f\n[e, f] = q\n", "unknown basis label 'q'")
    fails_with(
        "[lie_algebra g]\nbasis = e, f\n[e, f] = e\n[f, e] = e\n",
        "duplicate bracket relation",
        line=4,
    )
    doc = parse_spec_text("[lie_algebra g]\nbasis = e, f\n[e, f] = 2*e - f\n")
    assert doc.lie_algebras["g"].relations == {("e", "f"): {"e": F(2), "f": F(-1)}}
    zero = parse_spec_text("[lie_algebra g]\nbasis = e, f\n[e, f] = 0\n")
    assert zero.lie_algebras["g"].relations == {("e", "f"): {}}


def test_combination_coefficients_come_before_labels():
    fails_with("[lie_algebra g]\nbasis = e, h\n[e, h] = 2*e - h/2\n", "unexpected '/'", line=3)
    doc = parse_spec_text("[lie_algebra g]\nbasis = e, h\n[e, h] = 2*e - 1/2*h\n")
    assert doc.lie_algebras["g"].relations == {("e", "h"): {"e": F(2), "h": F(-1, 2)}}


def test_query_validation():
    fails_with("[query bogus]\n", "unknown query kind", line=1)
    fails_with("[query flat-sections]\n", "missing ideal")
    fails_with("[query flat-sections]\nideal = a\nwhat = 3\n", "takes no key 'what'")
    fails_with("[query check-poisson]\nextra = 1\n", "takes no key")


def test_query_option_parsing():
    doc = parse_spec_text(
        "[query char-class]\nalgebra = g\nideal = e; 2*f\nprojection = 1, 0; 0, 1\n"
    )
    (query,) = doc.queries
    assert query.options["ideal"] == "e; 2*f"
    assert query.options["projection"] == ((F(1), F(0)), (F(0), F(1)))
    doc = parse_spec_text("[query der-basis]\nideal = origin\ndegree = 2\n")
    assert doc.queries[0].options["degree"] == 2
    fails_with("[query der-basis]\nideal = origin\ndegree = -1\n", "degree")


def test_malformed_lines():
    fails_with("[variables]\nx\n[bivector]\nx ^ = 1\n", "")
    fails_with("[wtf", "malformed section header", line=1)
    fails_with("[query flat-sections]\nideal\n", "expected 'key = value'")


FLAT = "[query flat-sections]\nideal = a\n"
CHAR = "[query char-class]\nalgebra = g\nideal = e\n"
ALG = "[lie_algebra g]\nbasis = e, f\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        (FLAT + "point = ()\n", 3, "empty point"),
        (FLAT + "point =\n", 3, "empty point"),
        (FLAT + "point = 0, x\n", 3, "expected a rational number, got 'x'"),
        (FLAT + "point = (1, 2\n", 3, "expected a rational number, got '(1'"),
        (FLAT + "point = (0, 1e3)\n", 3, "expected a rational number, got '1e3'"),
        (FLAT + "point = 0, 1_000\n", 3, "expected a rational number, got '1_000'"),
        (FLAT + "point = (1_0, 0)\n", 3, "expected a rational number, got '1_0'"),
        (CHAR + "projection =\n", 4, "empty matrix row"),
        (CHAR + "projection = 1, 0;\n", 4, "empty matrix row"),
        (CHAR + "projection = 1, 0; 1\n", 4, "matrix rows have unequal lengths"),
        (CHAR + "projection = 1, 0; 0, 1_0\n", 4, "expected a rational number, got '1_0'"),
        ("[variables v]\nx\n", 1, "[variables] takes no name"),
        ("[variables]\nx, y\n[bivector]\nx ^ y = x\n[bivector]\nx ^ y = 1\n", 5, "duplicate [bivector] section"),
        ("[variables]\nx\n[ideal a]\nx\n[form a]\ndx\n", 5, "duplicate definition of 'a'"),
        ("[variables]\nx, x\n", 2, "duplicate variable 'x'"),
        ("[variables]\nx²\n", 2, "bad variable name 'x²'"),
        ("[lie_algebra g]\nbasis = e, e\n", 2, "duplicate basis labels"),
        (FLAT + "ideal = b\n", 3, "duplicate key 'ideal'"),
        (ALG + "[e, f] = e\n[f, e] = f\n", 4, "duplicate bracket relation for (f, e)"),
        ("[query]\n", 1, "[query] needs a kind"),
        (ALG + "[e, q] = f\n", 3, "unknown basis label 'q'"),
        (FLAT + "grade = x\n", 3, "grade must be an integer"),
        ("[query char-class]\nalgebra = g\nideal =\n", 3, "empty ideal basis"),
        ("[variables]\n", 1, "a [variables] section is required first"),
        ("[variables]\nx\n[multivector s]\n", 3, "multivector 's' has no expression"),
        ("[variables]\nx\n[form a]\n\n# nothing\n", 3, "form 'a' has no expression"),
        ("[lie_algebra g]\n", 1, "lie_algebra 'g' declares no basis"),
        (ALG + "[e, f] =\n", 3, "expected a term in the linear combination"),
        (ALG + "[e, f] = e +\n", 3, "expected a term in the linear combination"),
        (ALG + "[e, f] = 1/0*e\n", 3, "bad rational coefficient"),
        (ALG + "[e, f] = 1/*e\n", 3, "bad rational coefficient"),
        (ALG + "[e, f] = 2\n", 3, "a nonzero constant is not a basis combination"),
        (ALG + "[e, f] = 2*3\n", 3, "expected a basis label"),
        (ALG + "[e, f] = e f\n", 3, "unexpected 'f' in linear combination"),
        (ALG + "[e, f] = e $\n", 3, "unexpected character '$'"),
    ],
)
def test_spec_reader_errors_name_their_line(text, line, message, tmp_path, capsys):
    fails_with(text, message, line=line)
    spec = tmp_path / "bad.spec"
    spec.write_text(text, encoding="utf-8")
    assert main(["--spec", str(spec)]) == 3
    assert f"parse error: line {line}: {message}" in capsys.readouterr().err


def test_combination_that_cancels_is_zero():
    doc = parse_spec_text(ALG + "[e, f] = e - e\n")
    assert doc.lie_algebras["g"].relations == {("e", "f"): {}}
    doc = parse_spec_text(ALG + "[e, f] = 1/2*e + f - 1/2*e\n")
    assert doc.lie_algebras["g"].relations == {("e", "f"): {"f": F(1)}}
