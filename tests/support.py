"""Random-object builders and reference checks shared by the test modules.

Everything takes an explicit ``random.Random`` or seed so every test run is
reproducible from its seed.
"""

import random
from fractions import Fraction
from typing import Optional

from leafconn import linalg
from leafconn.charclass import LieIdeal, ProjectionOperator, abelianize, characteristic_class
from leafconn.derivations import RegularityResult, monomials_up_to
from leafconn.ideals import Ideal
from leafconn.liealg import (
    ChainElement,
    CochainCE,
    HomologyGrade,
    LieAlgebraFD,
    LieModuleFD,
    abelian_algebra,
    boundary_delta,
    ce_coboundary,
    direct_sum,
    heisenberg3,
    sl2,
    so3,
)
from leafconn.poly import Polynomial, VarContext
from leafconn.tensors import DifferentialForm, MultivectorField, merge_sign

XY = VarContext(["x", "y"])
XYZ = VarContext(["x", "y", "z"])

# Verdict lines collected by the acceptance tests; the conftest terminal
# summary hook prints them after the run, outside output capture.
ACCEPTANCE_LINES = []


def rand_fraction(rng, lo=-3, hi=3):
    return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 1, 2, 3]))


def rand_exponent(rng, n, degree):
    exp = [0] * n
    for _ in range(rng.randint(0, degree)):
        exp[rng.randrange(n)] += 1
    return tuple(exp)


def rand_poly(rng, context, degree=2, terms=3):
    n = len(context)
    acc = {}
    for _ in range(terms):
        exp = rand_exponent(rng, n, degree)
        acc[exp] = acc.get(exp, Fraction(0)) + rand_fraction(rng)
    return Polynomial(context, acc)


def rand_nonzero_poly(rng, context, degree=2, terms=3):
    p = rand_poly(rng, context, degree, terms)
    if p.is_zero:
        p = p + Polynomial.variable(context, 0)
    return p


def rand_binomial_ideal(rng, context, order):
    """One to n generators, each a monomial of degree 1-2 or that monomial
    minus a multiple of another of degree at most 2."""
    n = len(context)
    gens = []
    for _ in range(rng.randint(1, n)):
        lead = rand_exponent(rng, n, 2)
        if not any(lead):
            lead = (1,) + (0,) * (n - 1)
        g = Polynomial.monomial(context, lead)
        tail = rand_exponent(rng, n, 2)
        if rng.random() < 0.5 and tail != lead:
            g = g - Polynomial.monomial(context, tail, rng.choice([1, 2, Fraction(1, 2)]))
        gens.append(g)
    return Ideal(context, gens, order)


def rand_blade(rng, n, grade):
    return tuple(sorted(rng.sample(range(n), grade)))


def rand_multivector(rng, context, grade, degree=2, terms=2):
    n = len(context)
    if grade > n:
        return MultivectorField.zero(context, grade)
    acc = {}
    for _ in range(terms):
        blade = rand_blade(rng, n, grade)
        extra = rand_poly(rng, context, degree, 2)
        acc[blade] = acc[blade] + extra if blade in acc else extra
    return MultivectorField(context, grade, acc)


def rand_form(rng, context, grade, degree=2, terms=2):
    n = len(context)
    if grade > n:
        return DifferentialForm.zero(context, grade)
    acc = {}
    for _ in range(terms):
        blade = rand_blade(rng, n, grade)
        extra = rand_poly(rng, context, degree, 2)
        acc[blade] = acc[blade] + extra if blade in acc else extra
    return DifferentialForm(context, grade, acc)


def rand_monomial_field(rng, context, grade, degree=2):
    """Single-blade multivector with a monomial coefficient."""
    n = len(context)
    if grade > n:
        return MultivectorField.zero(context, grade)
    blade = rand_blade(rng, n, grade)
    coeff = Polynomial.monomial(context, rand_exponent(rng, n, degree), rand_fraction(rng))
    return MultivectorField(context, grade, {blade: coeff})


def rand_constant_vector(rng, context):
    acc = {}
    for i in range(len(context)):
        c = rand_fraction(rng)
        if c:
            acc[(i,)] = Polynomial.constant(context, c)
    if not acc:
        acc[(0,)] = Polynomial.constant(context, 1)
    return MultivectorField(context, 1, acc)


def rand_constant_covector(rng, context):
    acc = {}
    for i in range(len(context)):
        c = rand_fraction(rng)
        if c:
            acc[(i,)] = Polynomial.constant(context, c)
    if not acc:
        acc[(0,)] = Polynomial.constant(context, 1)
    return DifferentialForm(context, 1, acc)


def adjoint(g):
    """The adjoint module: basis element i acts by the matrix of [x_i, -]."""
    n = g.dim
    return LieModuleFD(
        g,
        [[[g.bracket_basis(i, s)[r] for s in range(n)] for r in range(n)] for i in range(n)],
    )


# -- reference checks -----------------------------------------------------------


def reference_delta_matrix(g: LieAlgebraFD, grade: int) -> list:
    """The boundary matrix from grade to grade-1, one column per basis blade
    read off ``boundary_delta`` (rows are target coordinates)."""
    target = g.blades(max(grade - 1, 0))
    columns = []
    for blade in g.blades(grade):
        image = boundary_delta(ChainElement.basis(g, blade))
        columns.append([image.components.get(b, Fraction(0)) for b in target])
    return [[col[r] for col in columns] for r in range(len(target))]


def ref_ce_coboundary(w: CochainCE) -> CochainCE:
    """The Koszul coboundary cell by cell, as leafconn computed it before
    ``ce_coboundary`` applied ``coboundary_matrix``; on grade 0, (da)(X) = X(a)."""
    g = w.algebra
    S = w.module
    data = {}
    for blade in g.blades(w.grade + 1):
        cell = [Fraction(0)] * S.dim
        for p in range(len(blade)):
            value = w.components.get(blade[:p] + blade[p + 1 :])
            if value:
                sign = -1 if p % 2 else 1
                for r, c in enumerate(S.act_basis(blade[p], value)):
                    cell[r] += sign * c
        for face, c in _ref_blade_boundary(g, blade).items():
            value = w.components.get(face)
            if value:
                for r, v in enumerate(value):
                    cell[r] += c * v
        data[blade] = cell
    return CochainCE(g, S, w.grade + 1, data)


def reference_coboundary_matrix(g: LieAlgebraFD, S: LieModuleFD, grade: int) -> list:
    """The coboundary matrix from grade to grade+1, one column per unit
    cochain read off ``ref_ce_coboundary`` (rows are target coordinates)."""
    nrows = len(g.blades(grade + 1)) * S.dim
    columns = []
    for blade in g.blades(grade):
        for unit in linalg.identity(S.dim):
            columns.append(ref_ce_coboundary(CochainCE(g, S, grade, {blade: unit})).coordinates())
    return [[col[r] for col in columns] for r in range(nrows)]


def lemma_equivalence_probe(
    g: LieAlgebraFD, S: LieModuleFD, trials: int = 10, seed: int = 0
) -> bool:
    """Multilinearity of coboundaries over scalar coefficients, checked on
    random data; scaling any single argument scales the value."""
    rng = random.Random(seed)
    for _ in range(trials):
        grade = rng.randint(0, max(g.dim - 1, 0))
        data = {}
        for blade in g.blades(grade):
            data[blade] = tuple(Fraction(rng.randint(-3, 3)) for _ in range(S.dim))
        w = CochainCE(g, S, grade, data)
        dw = ce_coboundary(w)
        vectors = [
            [Fraction(rng.randint(-3, 3)) for _ in range(g.dim)]
            for _ in range(grade + 1)
        ]
        a = Fraction(rng.randint(-5, 5))
        base = dw.evaluate(vectors)
        for position in range(grade + 1):
            scaled = [list(v) for v in vectors]
            scaled[position] = [a * c for c in scaled[position]]
            got = dw.evaluate(scaled)
            if got != [a * c for c in base]:
                return False
    return True


def abelianized_class_agrees(
    algebra: LieAlgebraFD,
    ideal: LieIdeal,
    projection: Optional[ProjectionOperator] = None,
) -> bool:
    """Whether the class computed before and after abelianizing coincides
    under the canonical identification of the two quotient pictures."""
    before = characteristic_class(ideal, projection)
    ab = abelianize(algebra, ideal)
    after = characteristic_class(ab.ideal)
    if before.h1.dim != after.h1.dim:
        return False
    if before.h1.dim == 0:
        return before.is_zero and after.is_zero
    # identify the two quotient algebras via images of coordinate lifts
    q_a, q_b = before.quotient, after.quotient
    n_a = q_a.algebra.dim
    if n_a != q_b.algebra.dim:
        return False
    m_cols = []
    for j in range(n_a):
        unit_q = [Fraction(0)] * n_a
        unit_q[j] = Fraction(1)
        m_cols.append(q_b.project(ab.project(q_a.lift(unit_q))))
    # identify the class modules via images of representatives
    n_cols = [after.h1.reduce(ab.project(rep)) for rep in before.h1.representatives]
    n_matrix = [[n_cols[c][r] for c in range(len(n_cols))] for r in range(before.h1.dim)]
    n_inverse = ref_invert(n_matrix)
    if n_inverse is None:
        return False
    # pull the abelianized form back and compare modulo exact cochains
    data = {}
    for blade in q_a.algebra.blades(2):
        value = after.form.evaluate([m_cols[blade[0]], m_cols[blade[1]]])
        data[blade] = tuple(linalg.matvec(n_inverse, value))
    pulled = CochainCE(q_a.algebra, before.module, 2, data)
    difference = before.form - pulled
    exact_rows = linalg.transpose(reference_coboundary_matrix(q_a.algebra, before.module, 1))
    reduced, pivots = ref_rref(exact_rows)
    return not any(ref_residue(difference.coordinates(), reduced, pivots))


# -- dense reference linear algebra ------------------------------------------------
# Plain left-to-right Gauss-Jordan on dense Fraction rows: the elimination
# leafconn.linalg used before its sparse kernel, kept as a differential oracle.
# ref_rref (and so ref_rank) also takes sparse rows (dicts of nonzero cells): it
# densifies them, runs the dense elimination and answers in sparse form.


def densify(rows, ncols):
    """Dense rows of width ``ncols`` from sparse ``{column: value}`` rows."""
    return [[row.get(j, Fraction(0)) for j in range(ncols)] for row in rows]


def sparsify(vec):
    """The sparse form of a dense vector: its nonzero cells."""
    return {j: x for j, x in enumerate(vec) if x}


def ref_rref(rows):
    if rows and isinstance(rows[0], dict):
        width = max((max(row) + 1 for row in rows if row), default=0)
        reduced, pivots = ref_rref(densify(rows, width))
        return [sparsify(row) for row in reduced], pivots
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def ref_rank(rows):
    return len(ref_rref(rows)[0])


def ref_residue(vec, reduced, pivots):
    out = [Fraction(x) for x in vec]
    for row, col in zip(reduced, pivots):
        if out[col]:
            factor = out[col]
            out = [a - factor * b for a, b in zip(out, row)]
    return out


def ref_nullspace(rows, ncols):
    reduced, pivots = ref_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = -row[free]
        basis.append(vec)
    return basis


def ref_solve(rows, rhs):
    if not rows:
        return [] if not any(rhs) else None
    ncols = len(rows[0])
    reduced, pivots = ref_rref([[*row, b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    solution = [Fraction(0)] * ncols
    for row, col in zip(reduced, pivots):
        solution[col] = row[-1]
    return solution


def ref_invert(rows):
    n = len(rows)
    reduced, pivots = ref_rref([[*row, *unit] for row, unit in zip(rows, linalg.identity(n))])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def rand_sparse_matrix(rng, nrows, ncols, density):
    """Random matrix with ``int`` and ``Fraction`` cells, about ``density``
    nonzero, sometimes with a zero row and a repeated row."""
    def cell():
        if rng.random() >= density:
            return rng.choice([0, Fraction(0)])
        value = rand_fraction(rng, -4, 4)
        return int(value) if value.denominator == 1 and rng.random() < 0.5 else value

    rows = [[cell() for _ in range(ncols)] for _ in range(nrows)]
    if rows and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [0] * ncols
    if rows and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = list(rows[rng.randrange(nrows)])
    return rows


# -- reference Lie matrices and (co)homology ------------------------------------
# The dense boundary and coboundary matrices and the (co)homology leafconn
# computed from them before its Lie matrices became sparse rows.  The code is
# the old code; only its row reductions go through the dense Gauss-Jordan
# oracles above and its per-blade kernel walks the dense bracket table, so
# these share no elimination and no boundary kernel with the sparse path.


def _ref_blade_boundary(g, blade):
    out = {}
    for a in range(len(blade)):
        for b in range(a + 1, len(blade)):
            pair_sign = -1 if (a + b) % 2 else 1  # (-1)^(i+j) with 1-based i,j
            rest = blade[:a] + blade[a + 1 : b] + blade[b + 1 :]
            for t, c in enumerate(g.bracket_basis(blade[a], blade[b])):
                if not c:
                    continue
                merged, sign = merge_sign((t,), rest)
                if sign:
                    out[merged] = out.get(merged, Fraction(0)) + c * pair_sign * sign
    return out


def ref_delta_matrix(g, grade):
    """Matrix rows of the boundary from grade to grade-1 blade coordinates."""
    source = g.blades(grade)
    position = {b: k for k, b in enumerate(g.blades(max(grade - 1, 0)))}
    rows = [[Fraction(0)] * len(source) for _ in position]
    for col, blade in enumerate(source):
        for face, c in _ref_blade_boundary(g, blade).items():
            rows[position[face]][col] = c
    return rows


def ref_homology(g):
    """Exact homology of the boundary complex, grades 0..dim."""
    out = []
    dm = []  # ref_delta_matrix(g, m), carried over from grade m - 1
    for m in range(g.dim + 1):
        blades = g.blades(m)
        kernel = ref_nullspace(dm, len(blades))
        next_matrix = ref_delta_matrix(g, m + 1) if m + 1 <= g.dim else []
        reduced, pivots = ref_rref(linalg.transpose(next_matrix))
        reps = []
        rep_rows = []
        rep_pivots = []
        for vec in kernel:
            res = ref_residue(vec, reduced, pivots)
            extra = ref_residue(res, rep_rows, rep_pivots)
            if any(extra):
                rep_rows, rep_pivots = ref_rref(rep_rows + [extra])
                reps.append(ChainElement(g, m, {b: c for b, c in zip(blades, res) if c}))
        rank_image = len(reduced)
        dim_h = len(kernel) - rank_image
        out.append(HomologyGrade(m, dim_h, reps))
        dm = next_matrix
    return out


def ref_is_boundary(u):
    """A preimage under the boundary operator, or None if there is none."""
    g = u.algebra
    if u.is_zero:
        return ChainElement(g, u.grade + 1)
    matrix = ref_delta_matrix(g, u.grade + 1)
    solution = ref_solve(matrix, u.coordinates())
    if solution is None:
        return None
    blades = g.blades(u.grade + 1)
    return ChainElement(g, u.grade + 1, {b: c for b, c in zip(blades, solution) if c})


def ref_coboundary_matrix(g, S, grade):
    """Matrix rows of d from grade to grade+1 cochain coordinates."""
    m = S.dim
    position = {b: k * m for k, b in enumerate(g.blades(grade))}
    ncols = len(position) * m
    rows = []
    for blade in g.blades(grade + 1):
        block = [[Fraction(0)] * ncols for _ in range(m)]
        for p in range(len(blade)):
            sign = -1 if p % 2 else 1
            col = position[blade[:p] + blade[p + 1 :]]
            for r, action_row in enumerate(S.matrices[blade[p]]):
                for s, a in enumerate(action_row):
                    if a:
                        block[r][col + s] += sign * a
        for face, c in _ref_blade_boundary(g, blade).items():
            col = position[face]
            for r in range(m):
                block[r][col + r] += c
        rows.extend(block)
    return rows


def ref_cohomology(g, S):
    """(grade, dimension) of the cochain complex's cohomology, grades 0..dim."""
    out = []
    ranks = {}
    for m in range(g.dim + 1):
        ncols = len(g.blades(m)) * S.dim
        ranks[m] = ref_rank(ref_coboundary_matrix(g, S, m))
        kernel_dim = ncols - ranks[m]
        image_dim = ranks[m - 1] if m >= 1 else 0
        out.append((m, kernel_dim - image_dim))
    return out


def ref_is_coboundary(w):
    """A preimage under d, or None; grade-0 cochains are never coboundaries."""
    if w.grade == 0:
        return None
    g, S = w.algebra, w.module
    matrix = ref_coboundary_matrix(g, S, w.grade - 1)
    solution = ref_solve(matrix, w.coordinates())
    if solution is None:
        return None
    return CochainCE.from_coordinates(g, S, w.grade - 1, solution)


def permuted_sum(rng, max_dim):
    """A direct sum of sl2, so3, h3 and 1-dimensional summands of dimension at
    most ``max_dim`` (at least 3), with its basis order shuffled."""
    factories = (sl2, so3, heisenberg3, lambda: abelian_algebra(1))
    g = rng.choice(factories[:3])()
    while g.dim < max_dim and rng.random() < 0.8:
        part = rng.choice([f() for f in factories if f().dim <= max_dim - g.dim])
        g = direct_sum(g, part)
    order = list(range(g.dim))
    rng.shuffle(order)
    table = [[[g.bracket_basis(i, j)[k] for k in order] for j in order] for i in order]
    return LieAlgebraFD([g.labels[i] for i in order], table)


def unimodular_basis(n, rng):
    """An integer n x n matrix M of determinant +-1: M = S P U, where U adds
    each basis vector's successor to it, P permutes and S flips signs (P and
    S from ``rng``)."""
    upper = [[Fraction(int(j in (i, i + 1))) for j in range(n)] for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    return [[rng.choice([-1, 1]) * x for x in upper[k]] for k in order]


def unimodular_twist(g, rng, m=None):
    """``g`` in the basis b_i = sum_k M[i][k] e_k, for M = ``m`` or else
    ``unimodular_basis(g.dim, rng)``.  The structure constants of the twisted
    algebra are integers whose pivots in row reduction are rarely +-1.  A
    vector v in the old basis has the coordinates M^-T v in the new one."""
    n = g.dim
    if m is None:
        m = unimodular_basis(n, rng)
    inv = ref_invert(m)
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            old = [Fraction(0)] * n
            for k in range(n):
                for l in range(n):
                    if m[i][k] and m[j][l]:
                        for c, v in enumerate(g.bracket_basis(k, l)):
                            old[c] += m[i][k] * m[j][l] * v
            row.append(linalg.matvec(linalg.transpose(inv), old))
        table.append(row)
    return LieAlgebraFD([f"b{k + 1}" for k in range(n)], table)


def rational_rescale(g, rng):
    """``g`` in the basis b_i = s_i e_i, for small positive rationals s_i
    from ``rng``, so that [b_i, b_j] = sum_k (s_i s_j / s_k) c_ijk b_k has
    constants with denominators; the labels get a prime."""
    scale = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(g.dim)]
    table = [
        [[scale[i] * scale[j] * c / scale[k] for k, c in enumerate(g.bracket_basis(i, j))] for j in range(g.dim)]
        for i in range(g.dim)
    ]
    return LieAlgebraFD([f"{name}'" for name in g.labels], table)


def strictly_upper_triangular(n):
    """The nilpotent algebra of strictly upper-triangular n x n matrices, basis
    E_ij (i < j) with [E_ij, E_kl] = [j = k] E_il - [l = i] E_kj."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = [f"E{i}{j}" for i, j in pairs]
    brackets = {}
    for i, j in pairs:
        for k, l in pairs:
            if (i, j) < (k, l):
                combo = {}
                if j == k:
                    combo[f"E{i}{l}"] = 1
                if l == i:
                    combo[f"E{k}{j}"] = -1
                if combo:
                    brackets[(f"E{i}{j}", f"E{k}{l}")] = combo
    return LieAlgebraFD.from_brackets(labels, brackets)


# The derivation-slice and cochain-evaluation code leafconn used before it
# routed them through linalg and the wedge kernel: hand-built constraint rows,
# row-combination loops, a transpose/nullspace slice intersection and a
# determinant per cochain component.  Kept as differential oracles; their row
# reductions are the dense Gauss-Jordan oracles above, not linalg's kernel.


def _ref_vector_to_field(context, monos, vec):
    n = len(context)
    coeffs = [Polynomial.zero(context) for _ in range(n)]
    for k, value in enumerate(vec):
        if value == 0:
            continue
        i, m = divmod(k, len(monos))
        coeffs[i] = coeffs[i] + Polynomial.monomial(context, monos[m], value)
    return MultivectorField(context, 1, {(i,): c for i, c in enumerate(coeffs) if not c.is_zero})


def _ref_field_to_vector(field, monos):
    index = {m: k for k, m in enumerate(monos)}
    vec = [Fraction(0)] * (len(field.context) * len(monos))
    for (i,), coeff in field.components():
        for exp, value in coeff.terms():
            if exp not in index:
                return None
            vec[i * len(monos) + index[exp]] = value
    return vec


def ref_der_I_basis(ideal, degree_bound):
    context = ideal.context
    n = len(context)
    monos = monomials_up_to(context, degree_bound)
    unknowns = n * len(monos)
    rows = []
    row_of = {}
    for j, g in enumerate(ideal.generators):
        for i in range(n):
            dg = g.partial(i)
            for m, mono in enumerate(monos):
                reduced = ideal.normal_form(Polynomial.monomial(context, mono, Fraction(1)) * dg)
                for exp, value in reduced.terms():
                    key = (j, exp)
                    if key not in row_of:
                        row_of[key] = len(rows)
                        rows.append([Fraction(0)] * unknowns)
                    rows[row_of[key]][i * len(monos) + m] += value
    kernel = ref_nullspace(rows, unknowns)
    return [_ref_vector_to_field(context, monos, vec) for vec in kernel]


def ref_is_regular_integral(distribution, ideal, degree_bound):
    """The regularity verdict on inputs already known to be valid."""
    if ideal.is_zero_ideal:
        return RegularityResult("regular", None, degree_bound)
    context = ideal.context
    d = degree_bound
    monos = monomials_up_to(context, d)
    gen_degrees = [max((c.total_degree() for _, c in f.components()), default=0) for f in distribution]

    d_rows = []
    for field, gdeg in zip(distribution, gen_degrees):
        if field.is_zero:
            continue
        for mono in monomials_up_to(context, max(d - gdeg, 0)):
            scaled = field.scale(Polynomial.monomial(context, mono, Fraction(1)))
            vec = _ref_field_to_vector(scaled, monos)
            if vec is not None:
                d_rows.append(vec)
    d_basis, _ = ref_rref(d_rows)

    constraints = []
    row_of = {}
    for t, basis_vec in enumerate(d_basis):
        field = _ref_vector_to_field(context, monos, basis_vec)
        for (i,), coeff in field.components():
            for exp, value in ideal.normal_form(coeff).terms():
                key = (i, exp)
                if key not in row_of:
                    row_of[key] = len(constraints)
                    constraints.append([Fraction(0)] * len(d_basis))
                constraints[row_of[key]][t] += value
    zero_part = []
    for lam in ref_nullspace(constraints, len(d_basis)):
        combo = [Fraction(0)] * len(monos) * len(context)
        for t, weight in enumerate(lam):
            for k, value in enumerate(d_basis[t]):
                combo[k] += weight * value
        zero_part.append(combo)

    slack = max(d, 2)
    big_monos = monomials_up_to(context, d + slack)
    big_index = {m: k for k, m in enumerate(big_monos)}
    id_rows = []
    for gb_elem in ideal.groebner_basis():
        for field, gdeg in zip(distribution, gen_degrees):
            if field.is_zero:
                continue
            budget = d + slack - gb_elem.total_degree() - gdeg
            for mono in monomials_up_to(context, max(budget, 0)):
                scaled = field.scale(Polynomial.monomial(context, mono, Fraction(1)) * gb_elem)
                vec = _ref_field_to_vector(scaled, big_monos)
                if vec is not None:
                    id_rows.append(vec)
    id_big_basis, _ = ref_rref(id_rows)
    # kill every coordinate of degree above d
    high = [k for k, m in enumerate(big_monos) if sum(m) > d]
    cut_rows = [[vec[i * len(big_monos) + k] for i in range(len(context)) for k in high] for vec in id_big_basis]
    inter = ref_nullspace(linalg.transpose(cut_rows) if cut_rows else [], len(id_big_basis))
    low_positions = [i * len(big_monos) + big_index[m] for i in range(len(context)) for m in monos]
    id_slice = []
    for weights in inter:
        combo = [Fraction(0)] * (len(context) * len(big_monos))
        for t, weight in enumerate(weights):
            for k, value in enumerate(id_big_basis[t]):
                combo[k] += weight * value
        id_slice.append([combo[k] for k in low_positions])
    id_basis, id_pivots = ref_rref(id_slice)

    for vec in zero_part:
        if any(ref_residue(vec, id_basis, id_pivots)):
            return RegularityResult("not_regular", _ref_vector_to_field(context, monos, vec), d)
    return RegularityResult("inconclusive", None, d)


def _ref_determinant(matrix):
    n = len(matrix)
    work = [row[:] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, n):
            if work[r][col]:
                factor = work[r][col] * inv
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det


def ref_cochain_evaluate(w, vectors):
    """sum over the cochain's blades of the argument matrix's minor times the value."""
    vecs = [[Fraction(c) for c in v] for v in vectors]
    out = [Fraction(0)] * w.module.dim
    for blade, value in w.components.items():
        det = _ref_determinant([[vecs[r][c] for c in blade] for r in range(w.grade)])
        for r, c in enumerate(value):
            out[r] += det * c
    return out


# -- reference Buchberger ------------------------------------------------------------
# The Gröbner core leafconn used before it kept leading monomials beside the
# basis: leads recomputed for every pair key, a min scan over the pair set,
# a two-scan minimal-basis step and division through Polynomial arithmetic.
# The exponent helpers, ``ref_monic`` and ``ref_s_polynomial`` are the exact
# ``Fraction`` versions that preceded the integer division kernel, so the
# oracles share none of it.  Kept as differential oracles.


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def ref_monic(p: Polynomial, key) -> Polynomial:
    _, coeff = p.leading_term(key)
    return p * (Fraction(1) / coeff)


def ref_s_polynomial(f: Polynomial, g: Polynomial, key) -> Polynomial:
    f_exp, f_coeff = f.leading_term(key)
    g_exp, g_coeff = g.leading_term(key)
    lcm = _exp_lcm(f_exp, g_exp)
    f_factor = Polynomial.monomial(f.context, _exp_sub(lcm, f_exp), Fraction(1) / f_coeff)
    g_factor = Polynomial.monomial(g.context, _exp_sub(lcm, g_exp), Fraction(1) / g_coeff)
    return f_factor * f - g_factor * g


def ref_normal_form_against(p: Polynomial, basis, key) -> Polynomial:
    leads = [g.leading_term(key) for g in basis]
    remainder = Polynomial.zero(p.context)
    work = p
    while not work.is_zero:
        exponent, coeff = work.leading_term(key)
        for g, (g_exp, g_coeff) in zip(basis, leads):
            if _divides(g_exp, exponent):
                factor = Polynomial.monomial(p.context, _exp_sub(exponent, g_exp), coeff / g_coeff)
                work = work - factor * g
                break
        else:
            term = Polynomial.monomial(p.context, exponent, coeff)
            remainder = remainder + term
            work = work - term
    return remainder


def ref_buchberger(generators, key) -> list:
    basis = [ref_monic(g, key) for g in generators if not g.is_zero]
    if not basis:
        return []
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    done: set = set()

    def lead(i: int):
        return basis[i].leading_term(key)[0]

    while pairs:
        i, j = min(pairs, key=lambda p: (key(_exp_lcm(lead(p[0]), lead(p[1]))), p))
        pairs.discard((i, j))
        done.add((i, j))
        lcm = _exp_lcm(lead(i), lead(j))
        if lcm == tuple(a + b for a, b in zip(lead(i), lead(j))):
            continue
        if any(
            k not in (i, j)
            and _divides(lead(k), lcm)
            and tuple(sorted((i, k))) in done
            and tuple(sorted((j, k))) in done
            for k in range(len(basis))
        ):
            continue
        remainder = ref_normal_form_against(ref_s_polynomial(basis[i], basis[j], key), basis, key)
        if not remainder.is_zero:
            basis.append(ref_monic(remainder, key))
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))
    return ref_reduce_basis(basis, key)


def ref_reduce_basis(basis, key) -> list:
    keep: list = []
    for i, g in enumerate(basis):
        g_lead = g.leading_term(key)[0]
        others = basis[:i] + basis[i + 1 :]
        if any(_divides(h.leading_term(key)[0], g_lead) and h.leading_term(key)[0] != g_lead for h in others):
            continue
        if any(h.leading_term(key)[0] == g_lead for h in keep):
            continue
        keep.append(g)
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        reduced.append(ref_monic(ref_normal_form_against(g, others, key), key) if others else g)
    reduced.sort(key=lambda g: key(g.leading_term(key)[0]))
    return reduced


# -- reference Schouten bracket ---------------------------------------------------
# The monomial rule leafconn used before the bracket read the odd and even
# partial derivatives: each pair of component blades is split as
# (c d_{i_1}) ^ d_{i_2} ^ ..., only pairs touching a coefficient-bearing
# factor are bracketed, and the grade-0 cases are the first-slot contraction
# of df.  Kept as a differential oracle.


def _ref_contract_df(f: Polynomial, field: MultivectorField) -> MultivectorField:
    """i_{df} in the first slot: index j at 0-based position m gives (-1)^m df/dx_j."""
    out = {}
    for indices, coeff in field.components():
        for pos, j in enumerate(indices):
            term = f.partial(j) * coeff * (-1 if pos % 2 else 1)
            rest = indices[:pos] + indices[pos + 1 :]
            out[rest] = out[rest] + term if rest in out else term
    return MultivectorField(field.context, field.grade - 1, out)


def ref_schouten_bracket(u: MultivectorField, v: MultivectorField) -> MultivectorField:
    context = u.context
    p, q = u.grade, v.grade
    if p == 0 and q == 0:
        return MultivectorField.zero(context, 0)
    if q == 0:
        return _ref_contract_df(v.scalar_part(), u)
    if p == 0:
        return _ref_contract_df(u.scalar_part(), v)
    one = Polynomial.constant(context, 1)
    prefactor = 1 if (p + 1) % 2 == 0 else -1
    out = {}
    for iu, cu in u.components():
        for iv, cv in v.components():
            for a in range(p):
                for b in range(q):
                    if a > 0 and b > 0:
                        continue
                    rest, rest_sign = merge_sign(iu[:a] + iu[a + 1 :], iv[:b] + iv[b + 1 :])
                    if rest_sign == 0:
                        continue
                    ca = cu if a == 0 else one
                    cb = cv if b == 0 else one
                    ka, kb = iu[a], iv[b]
                    # [ca d_ka, cb d_kb] = ca d_ka(cb) d_kb - cb d_kb(ca) d_ka
                    leftover = (one if a == 0 else cu) * (one if b == 0 else cv)
                    pair_sign = -1 if (a + b) % 2 else 1  # (-1)^(i+j), 1-based
                    for coeff, k in ((ca * cb.partial(ka), kb), (-(cb * ca.partial(kb)), ka)):
                        merged, sign = merge_sign((k,), rest)
                        if sign != 0 and not coeff.is_zero:
                            term = coeff * leftover * (prefactor * pair_sign * rest_sign * sign)
                            out[merged] = out[merged] + term if merged in out else term
    return MultivectorField(context, p + q - 1, out)


# -- reference integrality test ---------------------------------------------------
# The loop PoissonStructure.is_integral_ideal ran before it asked
# derivations.preserves_ideal of each coordinate Hamiltonian field: every
# bracket {x_i, g} of a coordinate with a generator is reduced by the ideal.
# Kept as a differential oracle.


def ref_is_integral_ideal(poisson, ideal: Ideal) -> bool:
    for g in ideal.generators:
        for i in range(len(poisson.context)):
            xi = Polynomial.variable(poisson.context, i)
            if not ideal.normal_form(poisson.poisson_bracket(xi, g)).is_zero:
                return False
    return True
