"""End-to-end acceptance gate.

Each test below covers one release criterion and writes a single
``[criterion N] PASS/FAIL`` line straight to the terminal (bypassing
capture) so a plain ``pytest -v`` run shows the per-criterion verdicts.
"""

import pathlib
import random
import time
from fractions import Fraction

from leafconn.charclass import LieIdeal, ProjectionOperator, characteristic_class
from leafconn.cli import main as cli_main
from leafconn.connection import (
    ConormalForm,
    LeafContext,
    covariant_derivative_multivector,
    covariant_derivative_transversal,
    duality_check,
    is_flat_at_point,
)
from leafconn.ideals import Ideal
from leafconn.liealg import (
    ChainElement,
    CochainCE,
    LieModuleFD,
    abelian_algebra,
    boundary_delta,
    ce_coboundary,
    delta_matrix,
    direct_sum,
    heisenberg3,
    homology,
    is_boundary,
    sl2,
    supercommutator,
)
from leafconn.linalg import nullspace
from leafconn.parse import parse_form, parse_multivector, parse_polynomial
from leafconn.poisson import PoissonStructure, jacobi_defect
from leafconn.poly import Polynomial, VarContext
from leafconn.tensors import (
    contract_covector,
    interior_product,
    lie_derivative,
    schouten_bracket,
    wedge,
)

import support

DATA = pathlib.Path(__file__).parent / "data"
F = Fraction
XY = support.XY
XYZ = support.XYZ


def _report(number, ok, description, started=None):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({time.monotonic() - started:.2f}s)" if started is not None else ""
    line = f"[criterion {number:2d}] {status} - {description}{suffix}"
    print(line)
    support.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {number} failed: {description}"


def origin_leaf(phi):
    pi = PoissonStructure(parse_multivector("d/dx ^ d/dy", XY).scale(phi))
    return LeafContext(pi, Ideal(XY, [parse_polynomial("x", XY), parse_polynomial("y", XY)]), base_point=(0, 0))


def rand_phi_vanishing_at_origin(rng):
    phi = support.rand_poly(rng, XY, degree=2, terms=3)
    return phi - Polynomial.constant(XY, phi.constant_term())


def test_criterion_01_graded_bracket_identity_suite():
    started = time.monotonic()
    rng = random.Random(101)
    count = 0
    ok = True
    for _ in range(60):
        p, q, r = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        U = support.rand_monomial_field(rng, XYZ, p)
        V = support.rand_monomial_field(rng, XYZ, q)
        W = support.rand_monomial_field(rng, XYZ, r)
        ok = ok and schouten_bracket(U, V) == schouten_bracket(V, U).scale((-1) ** (p * q))
        ok = ok and schouten_bracket(U, wedge(V, W)) == wedge(
            schouten_bracket(U, V), W
        ) + wedge(V, schouten_bracket(U, W)).scale((-1) ** ((p + 1) * q))
        jac = (
            schouten_bracket(U, schouten_bracket(V, W)).scale((-1) ** (p * (r - 1)))
            + schouten_bracket(V, schouten_bracket(W, U)).scale((-1) ** (q * (p - 1)))
            + schouten_bracket(W, schouten_bracket(U, V)).scale((-1) ** (r * (q - 1)))
        )
        ok = ok and jac.is_zero
        w = support.rand_form(rng, XYZ, rng.randint(p + q - 1, 3))
        lhs = lie_derivative(U, interior_product(V, w)) - interior_product(
            V, lie_derivative(U, w)
        ).scale((-1) ** ((p - 1) * q))
        ok = ok and lhs == interior_product(schouten_bracket(U, V), w).scale((-1) ** (p + 1))
        count += 4
        if not ok:
            break
    elapsed_ok = time.monotonic() - started < 10.0
    _report(
        1,
        ok and count >= 200 and elapsed_ok,
        f"graded bracket identity suite on {count} random monomial instances",
        started,
    )


def test_criterion_02_jacobi_detection():
    rng = random.Random(103)
    plane = parse_multivector("d/dx ^ d/dy", XY)
    ok = jacobi_defect(plane).is_zero
    for _ in range(20):
        phi = support.rand_poly(rng, XY, degree=3, terms=4)
        ok = ok and jacobi_defect(plane.scale(phi)).is_zero
    expected = parse_multivector("-2 * d/dx ^ d/dy ^ d/dz", XYZ)
    pi = parse_multivector("d/dx ^ d/dy + x * d/dx ^ d/dz", XYZ)
    ok = ok and jacobi_defect(pi) == expected
    for _ in range(5):
        q = support.rand_poly(rng, XYZ, degree=2, terms=3) + Polynomial.variable(XYZ, "x")
        if q.partial("x").is_zero:
            continue
        family = parse_multivector("d/dx ^ d/dy", XYZ) + parse_multivector(
            "d/dx ^ d/dz", XYZ
        ).scale(q)
        ok = ok and not jacobi_defect(family).is_zero
    _report(2, ok, "planar structures pass, three-variable family flagged")


def test_criterion_03_pointwise_derivative_closed_form():
    rng = random.Random(107)
    plane = parse_multivector("d/dx ^ d/dy", XY)
    ok = True
    for _ in range(5):
        phi = rand_phi_vanishing_at_origin(rng)
        leaf = origin_leaf(phi)
        alpha = support.rand_form(rng, XY, 1)
        section = support.rand_multivector(rng, XY, 1)
        got = covariant_derivative_transversal(leaf, alpha, section).class_at()
        x_f = contract_covector(alpha, plane)
        v_phi = section.apply_to(phi).evaluate([0, 0])
        want = tuple(
            -v_phi * x_f.coefficient((k,)).evaluate([0, 0]) for k in range(2)
        )
        ok = ok and got == want
        linear_part_zero = phi.partial("x").evaluate([0, 0]) == 0 and phi.partial(
            "y"
        ).evaluate([0, 0]) == 0
        ok = ok and is_flat_at_point(leaf) == linear_part_zero
    ok = ok and is_flat_at_point(origin_leaf(parse_polynomial("x^2 + y^2", XY)))
    ok = ok and not is_flat_at_point(origin_leaf(parse_polynomial("x", XY)))
    _report(3, ok, "pointwise derivative closed form and flatness characterization")


def test_criterion_04_decomposable_sections():
    rng = random.Random(109)
    plane = parse_multivector("d/dx ^ d/dy", XY)
    ok = True
    for _ in range(10):
        phi = rand_phi_vanishing_at_origin(rng)
        leaf = origin_leaf(phi)
        U = support.rand_constant_vector(rng, XY)
        V = support.rand_constant_vector(rng, XY)
        alpha = support.rand_constant_covector(rng, XY)
        lhs = schouten_bracket(leaf.poisson.anchor(alpha), wedge(U, V))
        x_f = contract_covector(alpha, plane)
        combo = V.scale(U.apply_to(phi)) - U.scale(V.apply_to(phi))
        ok = ok and lhs == -wedge(x_f, combo)
    line = origin_leaf(parse_polynomial("x", XY))
    section = parse_multivector("d/dx ^ d/dy", XY)
    along_dx = covariant_derivative_multivector(line, parse_form("dx", XY), section)
    along_dy = covariant_derivative_multivector(line, parse_form("dy", XY), section)
    ok = ok and along_dx.class_at() == (F(0),)
    ok = ok and along_dy.class_at() == (F(1),)
    _report(4, ok, "decomposable grade-2 sections: wedge identity and kernel criterion")


def three_var_leaves():
    plane = PoissonStructure(parse_multivector("d/dx ^ d/dy", XYZ))
    plane_leaf = LeafContext(
        plane, Ideal(XYZ, [parse_polynomial("z", XYZ)]), base_point=(0, 0, 0)
    )
    linear = PoissonStructure(
        parse_multivector("z * d/dx ^ d/dy + x * d/dy ^ d/dz", XYZ)
    )
    origin3 = LeafContext(
        linear,
        Ideal(XYZ, [parse_polynomial(v, XYZ) for v in ("x", "y", "z")]),
        base_point=(0, 0, 0),
    )
    return plane_leaf, origin3


def test_criterion_05_connection_duality():
    rng = random.Random(113)
    leaf2 = origin_leaf(parse_polynomial("x", XY))
    plane_leaf, origin3 = three_var_leaves()
    checks = 0
    ok = True
    for _ in range(8):
        alpha = support.rand_form(rng, XY, 1)
        omega = ConormalForm(leaf2, support.rand_form(rng, XY, 1))
        section = support.rand_multivector(rng, XY, 1)
        ok = ok and duality_check(leaf2, alpha, omega, section)
        checks += 1
    for _ in range(6):
        alpha = support.rand_form(rng, XYZ, 1)
        omega = ConormalForm(
            plane_leaf,
            parse_form("dz", XYZ).scale(support.rand_poly(rng, XYZ)),
        )
        section = support.rand_multivector(rng, XYZ, 1)
        ok = ok and duality_check(plane_leaf, alpha, omega, section)
        checks += 1
    for _ in range(6):
        alpha = support.rand_form(rng, XYZ, 1)
        omega = ConormalForm(origin3, support.rand_form(rng, XYZ, 1))
        section = support.rand_multivector(rng, XYZ, 1)
        ok = ok and duality_check(origin3, alpha, omega, section)
        checks += 1
    _report(5, ok and checks == 20, f"derivative/pairing duality on {checks} leaf instances")


def test_criterion_06_extension_independence():
    rng = random.Random(127)
    leaf2 = origin_leaf(parse_polynomial("x", XY))
    plane_leaf, _ = three_var_leaves()
    ok = True
    for case in range(10):
        leaf = leaf2 if case % 2 == 0 else plane_leaf
        ctx = leaf.context
        gens = leaf.ideal.generators
        k = Polynomial.zero(ctx)
        for g in gens:
            k = k + g * support.rand_poly(rng, ctx, degree=1, terms=2)
        alpha = support.rand_form(rng, ctx, 1)
        section = support.rand_multivector(rng, ctx, 1)
        base = covariant_derivative_transversal(leaf, alpha, section).class_at()
        beta = support.rand_form(rng, ctx, 1)
        shifted_alpha = alpha + beta.scale(k)
        ok = ok and covariant_derivative_transversal(leaf, shifted_alpha, section).class_at() == base
        w = support.rand_multivector(rng, ctx, 1)
        shifted_section = section + w.scale(k)
        ok = ok and covariant_derivative_transversal(leaf, alpha, shifted_section).class_at() == base
    _report(6, ok, "classes unchanged by ideal-multiple shifts of the form and section")


def closed_chain(rng, g, grade):
    blades = g.blades(grade)
    if grade <= 1:
        return ChainElement(g, grade, {b: F(rng.randint(-3, 3)) for b in blades})
    kernel = nullspace(delta_matrix(g, grade), len(blades))
    coords = [F(0)] * len(blades)
    for vec in kernel:  # sparse kernel vectors of the sparse boundary rows
        c = rng.randint(-2, 2)
        for j, x in vec.items():
            coords[j] += c * x
    return ChainElement(g, grade, dict(zip(blades, coords)))


def test_criterion_07_complex_identities():
    rng = random.Random(131)
    algebras = [abelian_algebra(2), heisenberg3(), sl2()]
    count = 0
    ok = True
    for g in algebras:
        S = LieModuleFD.trivial(g)
        for _ in range(17):
            grade = rng.randint(2, g.dim)
            u = ChainElement(
                g, grade, {b: F(rng.randint(-3, 3)) for b in g.blades(grade)}
            )
            ok = ok and boundary_delta(boundary_delta(u)).is_zero
            count += 1
            cgrade = rng.randint(0, g.dim - 2)
            w = CochainCE(
                g, S, cgrade, {b: (F(rng.randint(-3, 3)),) for b in g.blades(cgrade)}
            )
            ok = ok and ce_coboundary(ce_coboundary(w)).is_zero
            count += 1
        for _ in range(10):
            u = closed_chain(rng, g, 1)
            v = closed_chain(rng, g, 1)
            expected = ChainElement.vector(
                g, g.bracket(u.coordinates(), v.coordinates())
            )
            ok = ok and supercommutator(u, v) == expected
        for _ in range(10):
            u = closed_chain(rng, g, rng.randint(1, 2))
            v = closed_chain(rng, g, rng.randint(1, 2))
            ok = ok and boundary_delta(u).is_zero and boundary_delta(v).is_zero
            w = supercommutator(u, v)
            ok = ok and (w.is_zero or is_boundary(w) is not None)
    _report(
        7,
        ok and count >= 100,
        f"square-zero identities on {count} chains, bracket deviation consistent",
    )


def test_criterion_08_semisimple_homology_table():
    levels = homology(sl2())
    dims = tuple(h.dimension for h in levels)
    euler = sum((-1) ** h.grade * h.dimension for h in levels)
    chain_euler = sum((-1) ** k * len(sl2().blades(k)) for k in range(4))
    ok = dims == (1, 0, 0, 1) and euler == 0 and chain_euler == 0
    _report(8, ok, f"three-dimensional simple algebra homology table {dims}")


def test_criterion_09_characteristic_class_suite():
    started = time.monotonic()
    rng = random.Random(137)
    h3 = heisenberg3()
    center = LieIdeal.from_labels(h3, "h")
    base = characteristic_class(center)
    ok = not base.is_zero and base.class_vector == (F(-1),)
    split = direct_sum(sl2(), heisenberg3())
    factor = LieIdeal.from_labels(split, "e2", "f2", "h2")
    ok = ok and characteristic_class(factor).is_zero
    for _ in range(10):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        matrix = [[F(0)] * 3, [F(0)] * 3, [F(a), F(b), F(1)]]
        alt = characteristic_class(center, ProjectionOperator(center, matrix))
        ok = ok and alt.class_vector == base.class_vector
    ok = ok and support.abelianized_class_agrees(h3, center)
    big = LieIdeal.from_labels(split, "e", "f", "h", "h2")
    ok = ok and support.abelianized_class_agrees(split, big)
    elapsed_ok = time.monotonic() - started < 5.0
    _report(9, ok and elapsed_ok, "obstruction class behavior", started)


def test_criterion_10_groebner_layer():
    started = time.monotonic()
    rng = random.Random(139)
    ok = True
    for case in range(50):
        nvars = rng.randint(1, 3)
        ctx = VarContext(["x", "y", "z"][:nvars])
        gens = []
        wanted = rng.randint(1, 3)
        while len(gens) < wanted:
            g = support.rand_nonzero_poly(rng, ctx, degree=rng.randint(1, 4), terms=3)
            if case % 5 != 0:
                # mostly proper ideals: drop the constant term so the
                # generators vanish at the origin
                g = g - Polynomial.constant(ctx, g.constant_term())
            if not g.is_zero:
                gens.append(g)
        ideal = Ideal(ctx, gens)
        p = support.rand_poly(rng, ctx, degree=3, terms=3)
        q = support.rand_poly(rng, ctx, degree=3, terms=3)
        np_, nq = ideal.normal_form(p), ideal.normal_form(q)
        ok = ok and ideal.normal_form(np_) == np_
        ok = ok and ideal.normal_form(p * q) == ideal.normal_form(np_ * nq)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        ok = ok and [str(g) for g in Ideal(ctx, shuffled).groebner_basis()] == [
            str(g) for g in ideal.groebner_basis()
        ]
        if not ok:
            break
    elapsed_ok = time.monotonic() - started < 30.0
    _report(10, ok and elapsed_ok, "normal forms and basis uniqueness on 50 random ideals", started)


def test_criterion_11_cli_golden_files(tmp_path):
    ok = True
    for name in ("check_poisson", "flat_sections", "char_class"):
        expected = (DATA / f"{name}.report").read_bytes()
        for attempt in range(2):
            out = tmp_path / f"{name}_{attempt}.txt"
            code = cli_main(
                ["--spec", str(DATA / f"{name}.spec"), "--out", str(out)]
            )
            ok = ok and code == 0 and out.read_bytes() == expected
    _report(11, ok, "three command-line reports byte-identical across runs")
