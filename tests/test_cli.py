import os
import pathlib
import subprocess
import sys

import pytest

import leafconn
from leafconn import connection
from leafconn.cli import main
from leafconn.parse import parse_multivector
from leafconn.poly import VarContext

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = ["check_poisson", "flat_sections", "char_class", "der_basis", "lie_rational"]


def run_to_file(spec_path, tmp_path, extra=()):
    out = tmp_path / "report.txt"
    code = main(["--spec", str(spec_path), "--out", str(out), *extra])
    return code, out.read_bytes() if out.exists() else b""


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_reports(name, tmp_path):
    spec = DATA / f"{name}.spec"
    expected = (DATA / f"{name}.report").read_bytes()
    code, first = run_to_file(spec, tmp_path)
    assert code == 0
    assert first == expected
    code, second = run_to_file(spec, tmp_path)
    assert code == 0
    assert second == first


def test_report_to_stdout(capsys):
    code = main(["--spec", str(DATA / "check_poisson.spec")])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == (DATA / "check_poisson.report").read_bytes()


def child_env(**extra):
    """The environment for a child process that imports the same leafconn as
    this one, installed or not."""
    src = str(pathlib.Path(leafconn.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "leafconn.cli", "--spec", str(DATA / "char_class.spec")],
        capture_output=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == (DATA / "char_class.report").read_bytes()


HASH_SEED_CHILD = """
import pathlib, sys
from leafconn.cli import main
data, out = map(pathlib.Path, sys.argv[1:])
for spec in sorted(data.glob("*.spec")):
    print(spec.stem, main(["--spec", str(spec), "--out", str(out / (spec.stem + ".report"))]))
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_golden_reports_do_not_depend_on_the_hash_seed(seed, tmp_path):
    # One fresh interpreter per fixed PYTHONHASHSEED, so a dependence on set
    # or dict-of-str order fails here instead of making other tests flaky.
    proc = subprocess.run(
        [sys.executable, "-c", HASH_SEED_CHILD, str(DATA), str(tmp_path)],
        capture_output=True,
        text=True,
        env=child_env(PYTHONHASHSEED=seed),
    )
    assert proc.returncode == 0, proc.stderr
    specs = sorted(DATA.glob("*.spec"))
    assert proc.stdout.splitlines() == [f"{spec.stem} 0" for spec in specs]
    for spec in specs:
        assert (tmp_path / f"{spec.stem}.report").read_bytes() == spec.with_suffix(".report").read_bytes()


def test_jacobi_failure_sets_exit_code(tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_text(
        "[variables]\nx, y, z\n\n[bivector]\nx ^ y = 1\nx ^ z = x\n\n[query check-poisson]\n"
    )
    code, report = run_to_file(spec, tmp_path)
    assert code == 2
    text = report.decode()
    assert "status = not_poisson" in text
    assert "defect = -2 * d/dx ^ d/dy ^ d/dz" in text


def test_unknown_section_reference_is_validation_error(tmp_path):
    spec = tmp_path / "missing.spec"
    spec.write_text(
        "[variables]\nx, y\n\n[bivector]\nx ^ y = x\n\n[query flat-sections]\nideal = nope\n"
    )
    code, report = run_to_file(spec, tmp_path)
    assert code == 2
    assert "status = error" in report.decode()
    assert "nope" in report.decode()


def test_query_without_bivector_is_validation_error(tmp_path):
    spec = tmp_path / "nobiv.spec"
    spec.write_text("[variables]\nx, y\n\n[query check-poisson]\n")
    code, report = run_to_file(spec, tmp_path)
    assert code == 2
    assert "no [bivector]" in report.decode()


def test_parse_error_exit_code(tmp_path, capsys):
    spec = tmp_path / "broken.spec"
    spec.write_text("[variables]\nx\n[bivector]\nx ^ = 1\n")
    assert main(["--spec", str(spec)]) == 3
    assert "parse error" in capsys.readouterr().err
    assert main(["--spec", str(tmp_path / "no_such_file.spec")]) == 3
    assert main(["--spec", str(DATA / "check_poisson.spec"), "--degree-bound", "-1"]) == 3


def test_deep_nesting_is_parse_error(tmp_path, capsys):
    spec = tmp_path / "deep.spec"
    spec.write_text("[variables]\nx, y\n\n[bivector]\nx ^ y = " + "(" * 3000 + "x" + ")" * 3000 + "\n")
    assert main(["--spec", str(spec)]) == 3
    err = capsys.readouterr().err
    assert "parse error: line 5: parentheses nested deeper than 100 levels" in err
    assert "Traceback" not in err


def test_off_leaf_point_prints_rationals(tmp_path):
    spec = tmp_path / "offleaf.spec"
    spec.write_text(
        "[variables]\nx, y, z\n\n[bivector]\nx ^ y = 1\n\n"
        "[ideal plane]\nz - 1\n\n[query flat-sections]\nideal = plane\npoint = 1/2, 0, 0\n"
    )
    code, report = run_to_file(spec, tmp_path)
    assert code == 2
    assert "error = generator z - 1 does not vanish at (1/2, 0, 0)\n" in report.decode()


def test_flat_sections_grade_zero_is_validation_error(tmp_path):
    spec = tmp_path / "grade0.spec"
    spec.write_text(
        "[variables]\nx, y\n\n[bivector]\nx ^ y = x\n\n"
        "[ideal origin]\nx\ny\n\n[query flat-sections]\nideal = origin\npoint = 0, 0\ngrade = 0\n"
    )
    code, report = run_to_file(spec, tmp_path)
    assert code == 2
    text = report.decode()
    assert "status = error" in text
    assert "error = transversal grade must be at least 1, got 0\n" in text


def test_degree_bound_default_shows_in_report(tmp_path):
    spec = tmp_path / "deg.spec"
    spec.write_text(
        "[variables]\nx, y\n\n[ideal origin]\nx\ny\n\n[query der-basis]\nideal = origin\n"
    )
    code, report = run_to_file(spec, tmp_path)
    assert code == 0
    assert "truncated_at = 3" in report.decode()


def test_order_flag_accepted(tmp_path):
    spec = DATA / "flat_sections.spec"
    expected = (DATA / "flat_sections.report").read_bytes()
    code, report = run_to_file(spec, tmp_path, extra=("--order", "lex"))
    assert code == 0
    assert report == expected


def test_connection_queries(tmp_path):
    spec = tmp_path / "conn.spec"
    spec.write_text(
        "[variables]\nx, y\n\n[bivector]\nx ^ y = x\n\n"
        "[ideal origin]\nx\ny\n\n[form a]\ndy\n\n"
        "[multivector s]\nd/dx\n\n[multivector u]\nd/dx ^ d/dy\n\n"
        "[query schouten]\nleft = s\nright = u\n\n"
        "[query leaf-connection]\nideal = origin\nalpha = a\nsection = s\npoint = 0, 0\n"
    )
    code, report = run_to_file(spec, tmp_path)
    assert code == 0
    text = report.decode()
    assert "[query 1: schouten]" in text
    assert "bracket = 0" in text
    assert "[query 2: leaf-connection]" in text
    assert "representative = d/dx" in text
    assert "class_at_point = d/dx" in text


def test_leaves_are_built_once_per_ideal_and_point(tmp_path, monkeypatch):
    built = []

    class CountingLeaf(connection.LeafContext):
        def __init__(self, poisson, ideal, base_point=None):
            built.append(base_point)
            super().__init__(poisson, ideal, base_point=base_point)

    monkeypatch.setattr(connection, "LeafContext", CountingLeaf)
    spec = tmp_path / "leaves.spec"
    spec.write_text(
        "[variables]\nx, y\n\n[bivector]\nx ^ y = x\n\n"
        "[ideal origin]\nx\ny\n\n[form a]\ndy\n\n[multivector s]\nd/dx\n\n"
        "[query leaf-connection]\nideal = origin\nalpha = a\nsection = s\npoint = 0, 0\n\n"
        "[query flat-sections]\nideal = origin\npoint = 0, 0\n\n"
        "[query flat-sections]\nideal = origin\npoint = 0, 0\ngrade = 2\n\n"
        "[query flat-sections]\nideal = origin\npoint = 1, 0\n\n"
        "[query flat-sections]\nideal = origin\npoint = 1, 0\n\n"
        "[query flat-sections]\nideal = origin\n"
    )
    code, report = run_to_file(spec, tmp_path)
    assert code == 2
    # a leaf that failed validation is not kept: each query raises afresh
    assert report.decode().count("error = generator x does not vanish at (1, 0)\n") == 2
    assert built == [(0, 0), (1, 0), (1, 0), None]


def test_char_class_projection_option(tmp_path):
    spec = tmp_path / "proj.spec"
    spec.write_text(
        "[lie_algebra heis]\nbasis = e, f, h\n[e, f] = h\n\n"
        "[query char-class]\nalgebra = heis\nideal = h\nprojection = 0, 0, 0; 0, 0, 0; 2, -1, 1\n"
    )
    code, report = run_to_file(spec, tmp_path)
    assert code == 0
    assert "class = e* ^ f* -> -1*[h]" in report.decode()


def test_char_class_non_ideal_is_validation_error(tmp_path):
    spec = tmp_path / "notideal.spec"
    spec.write_text(
        "[lie_algebra heis]\nbasis = e, f, h\n[e, f] = h\n\n"
        "[query char-class]\nalgebra = heis\nideal = e\n"
    )
    code, report = run_to_file(spec, tmp_path)
    assert code == 2
    assert "leaves the subspace" in report.decode()


@pytest.mark.parametrize("ideal", ["0", "h; 0"])
def test_char_class_zero_row_is_rejected(ideal, tmp_path):
    spec = tmp_path / "zero.spec"
    spec.write_text(
        "[lie_algebra heis]\nbasis = e, f, h\n[e, f] = h\n\n"
        f"[query char-class]\nalgebra = heis\nideal = {ideal}\n"
    )
    code, report = run_to_file(spec, tmp_path)
    assert code == 2
    text = report.decode()
    assert "status = error" in text
    assert "error = ideal basis vectors must be linearly independent" in text


LEAF_SPEC = (
    "[variables]\nx, y\n\n[bivector]\nx ^ y = x\n\n[ideal origin]\nx\ny\n\n"
    "[form a]\ndy\n\n[form nil]\n0*dx\n\n[multivector s]\nd/dx\n\n[multivector f]\nx\n\n"
)
HEIS_SPEC = "[lie_algebra heis]\nbasis = e, f, h\n[e, f] = h\n\n"


@pytest.mark.parametrize(
    "body, code, line",
    [
        (LEAF_SPEC + "[query schouten]\nleft = s\nright = nope\n", 2, "error = unknown multivector 'nope'"),
        (
            LEAF_SPEC + "[query leaf-connection]\nideal = origin\nalpha = nope\nsection = s\npoint = 0, 0\n",
            2,
            "error = unknown form 'nope'",
        ),
        (HEIS_SPEC + "[query lie-homology]\nalgebra = nope\n", 2, "error = unknown lie_algebra 'nope'"),
        (
            "[lie_algebra g]\nbasis = a, b, c\n[a, b] = a\n[a, c] = b\n\n[query lie-homology]\nalgebra = g\n",
            2,
            "error = lie_algebra 'g': Jacobi identity fails on (a, b, c)",
        ),
        (
            LEAF_SPEC + "[query leaf-connection]\nideal = origin\nalpha = a\nsection = f\npoint = 0, 0\n",
            2,
            "error = expected a section of grade at least 1",
        ),
        (HEIS_SPEC + "[query char-class]\nalgebra = heis\nideal = q\n", 2, "error = line 7: unknown basis label 'q'"),
        (
            LEAF_SPEC + "[query leaf-connection]\nideal = origin\nalpha = nil\nsection = s\npoint = 0, 0\n",
            0,
            "class_at_point = 0",
        ),
    ],
    ids=["multivector", "form", "lie-algebra", "jacobi", "grade-0-section", "basis-label", "zero-form"],
)
def test_query_outcomes(body, code, line, tmp_path):
    spec = tmp_path / "query.spec"
    spec.write_text(body)
    got, report = run_to_file(spec, tmp_path)
    assert got == code
    assert line + "\n" in report.decode().splitlines(keepends=True)


def test_report_values_parse_back():
    text = (DATA / "flat_sections.report").read_text()
    values = dict(
        line.split(" = ", 1) for line in text.splitlines() if " = " in line
    )
    ctx = VarContext(["x", "y"])
    flat = parse_multivector(values["flat_section_basis"], ctx)
    assert str(flat) == "d/dy"
    for chunk in values["basis"].split("; "):
        parse_multivector(chunk, ctx)


BIG = "9" * 5000  # past the interpreter's default int-string limit of 4300 digits


@pytest.mark.parametrize(
    "body",
    [
        f"[variables]\nx, y\n\n[ideal big]\nx - {BIG}\n\n[query der-basis]\nideal = big\n",
        f"[variables]\nx, y\n\n[bivector]\nx ^ y = x^{BIG}\n\n[query check-poisson]\n",
        f"[lie_algebra heis]\nbasis = e, f, h\n[e, f] = {BIG}*h\n\n"
        "[query char-class]\nalgebra = heis\nideal = h\n",
    ],
    ids=["literal", "exponent", "combo"],
)
def test_oversized_number_literal_is_parse_error(body, tmp_path, capsys):
    spec = tmp_path / "big.spec"
    spec.write_text(body)
    assert main(["--spec", str(spec)]) == 3
    err = capsys.readouterr().err
    assert "parse error: line " in err
    assert "number literal of 5000 digits is too long" in err


@pytest.mark.parametrize(
    "option",
    ["point = 1e10000000, 0", "point = 0, 2E3", "projection = 0, 0, 0; 0, 0, 0; 1e9, 0, 1"],
)
def test_exponent_notation_is_parse_error(option, tmp_path, capsys):
    spec = tmp_path / "exp.spec"
    if option.startswith("point"):
        spec.write_text(
            "[variables]\nx, y\n\n[bivector]\nx ^ y = x\n\n"
            f"[ideal origin]\nx\ny\n\n[query flat-sections]\nideal = origin\n{option}\n"
        )
    else:
        spec.write_text(
            "[lie_algebra heis]\nbasis = e, f, h\n[e, f] = h\n\n"
            f"[query char-class]\nalgebra = heis\nideal = h\n{option}\n"
        )
    assert main(["--spec", str(spec)]) == 3
    assert "expected a rational number, got '" in capsys.readouterr().err
