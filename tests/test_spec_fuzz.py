"""Robustness of the spec reader and the CLI on mutated golden specs.

Every mutation of a valid spec must either parse or raise ``SpecFileError``,
and the CLI must answer it with a documented exit code (0, 2 or 3), never
with an internal error (1).
"""
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from leafconn.cli import main
from leafconn.specfile import SpecFileError, parse_spec_text

DATA = pathlib.Path(__file__).parent / "data"
SPECS = [path.read_text() for path in sorted(DATA.glob("*.spec"))]

# Spec tokens to splice in; numbers are padded so that an insertion does not
# lengthen an existing literal into a large degree or exponent.
TOKENS = [
    "\n", " ", "#", "[", "]", "=", ",", ";", "^", "*", "/", "+", "-", "(", ")",
    " 2 ", " 1/0 ", " -1/2 ", "x", "y", "z", "e", "h", "d/dx", "d/dy", "dx", "dy",
    "[variables]", "[bivector]", "[ideal origin]", "[multivector s]", "[form a]",
    "[lie_algebra heis]", "[query check-poisson]", "[query flat-sections]",
    "[query der-basis]", "[query lie-homology]", "[query char-class]",
    "[query schouten]", "[query leaf-connection]", "basis = e, f, h", "[e, f] = h",
    "algebra = heis", "ideal = origin", "ideal = 0", "point = ", "grade = ",
    "projection = ", "left = s", "right = s", "alpha = a", "section = s",
]


@st.composite
def mutated_spec(draw):
    text = draw(st.sampled_from(SPECS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + text[at + draw(st.integers(1, 20)) :]
        else:
            text = text[:at] + draw(st.sampled_from(TOKENS)) + text[at:]
    return text


@settings(max_examples=150, derandomize=True, deadline=None)
@given(text=mutated_spec())
def test_mutated_specs_parse_or_fail_cleanly(text, tmp_path_factory):
    try:
        parse_spec_text(text)
    except SpecFileError:
        pass
    work = tmp_path_factory.mktemp("fuzz")
    spec = work / "mutated.spec"
    spec.write_text(text)
    code = main(["--spec", str(spec), "--out", str(work / "report.txt"), "--degree-bound", "1"])
    assert code in (0, 2, 3)
