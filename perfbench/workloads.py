"""Seeded inputs for the three benchmark workloads, as plain data.

Nothing here imports leafconn: the parent process uses these descriptions
to write inputs and to check outputs, and each pass process turns them into
leafconn objects during its set-up.  The same seed always gives the same
data.
"""
from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("groebner", "lie_homology", "spec_batch")
DEFAULT_SEED = 0

# A polynomial is a list of (exponent tuple, integer or Fraction coefficient).


def _add(poly: dict, exp: tuple, coeff) -> None:
    value = poly.get(exp, 0) + coeff
    if value:
        poly[exp] = value
    else:
        poly.pop(exp, None)


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _add(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def _var(n: int, i: int) -> dict:
    return {tuple(1 if j == i else 0 for j in range(n)): 1}


def katsura(n: int) -> tuple[list[str], list[dict]]:
    """The katsura-n system in n + 1 unknowns u0..un."""
    nv = n + 1
    u = [_var(nv, i) for i in range(nv)]

    def big_u(m: int) -> dict:
        m = abs(m)
        return u[m] if m <= n else {}

    eqs = []
    for m in range(n):
        acc: dict = {}
        for l in range(-n, n + 1):
            for e, c in _mul(big_u(l), big_u(m - l)).items():
                _add(acc, e, c)
        for e, c in u[m].items():
            _add(acc, e, -c)
        eqs.append(acc)
    lin: dict = {}
    for l in range(nv):
        for e, c in u[l].items():
            _add(lin, e, c if l == 0 else 2 * c)
    _add(lin, (0,) * nv, -1)
    eqs.append(lin)
    return [f"u{i}" for i in range(nv)], eqs


def cyclic(n: int) -> tuple[list[str], list[dict]]:
    """The cyclic-n system in x0..x(n-1)."""
    eqs = []
    for k in range(1, n):
        acc: dict = {}
        for i in range(n):
            exp = [0] * n
            for j in range(k):
                exp[(i + j) % n] += 1
            _add(acc, tuple(exp), 1)
        eqs.append(acc)
    eqs.append({(1,) * n: 1, (0,) * n: -1})
    return [f"x{i}" for i in range(n)], eqs


def random_quadrics(rng: random.Random, nvars: int = 4, count: int = 4) -> tuple[list[str], list[dict]]:
    """``count`` dense quadrics in ``nvars`` unknowns, coefficients in [-5, 5]."""
    exps = []
    for a in range(nvars):
        for b in range(a, nvars):
            e = [0] * nvars
            e[a] += 1
            e[b] += 1
            exps.append(tuple(e))
    exps += [tuple(1 if j == a else 0 for j in range(nvars)) for a in range(nvars)]
    exps.append((0,) * nvars)
    eqs = []
    for _ in range(count):
        eq = {e: rng.randint(-5, 5) for e in exps}
        eqs.append({e: c for e, c in eq.items() if c})
    return [f"x{i}" for i in range(nvars)], eqs


def groebner_inputs(seed: int) -> list[dict]:
    """The Gröbner systems of one pass, in the order they run."""
    rng = random.Random(f"groebner:{seed}")
    systems = [
        ("katsura5-grevlex", katsura(5), "grevlex"),
        ("katsura3-lex", katsura(3), "lex"),
        ("cyclic4-grevlex", cyclic(4), "grevlex"),
        ("cyclic4-lex", cyclic(4), "lex"),
    ]
    for k in range(2):
        systems.append((f"random{k}-grevlex", random_quadrics(rng), "grevlex"))
    return [
        {
            "name": name,
            "vars": names,
            "order": order,
            "polys": [sorted(p.items()) for p in polys],
        }
        for name, (names, polys), order in systems
    ]


# -- Lie algebras ---------------------------------------------------------------

# (labels, brackets) with brackets {(a, b): {c: coeff}}; Betti numbers of
# each summand (Künneth factors) travel with the algebra.
SL2 = (("e", "f", "h"), {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}})
H3 = (("p", "q", "z"), {("p", "q"): {"z": 1}})
A1 = (("a",), {})
BETTI = {"sl2": (1, 0, 0, 1), "h3": (1, 2, 2, 1), "a1": (1, 1)}
SUMMANDS = {"sl2": SL2, "h3": H3, "a1": A1}


def direct_sum(parts: list[str]) -> tuple[list[str], dict]:
    """Labels and brackets of a direct sum; labels get the summand index."""
    labels: list[str] = []
    brackets: dict = {}
    for k, part in enumerate(parts):
        names, rel = SUMMANDS[part]
        labels += [f"{n}{k}" for n in names]
        for (a, b), combo in rel.items():
            brackets[(f"{a}{k}", f"{b}{k}")] = {f"{c}{k}": v for c, v in combo.items()}
    return labels, brackets


def kunneth(parts: list[str]) -> list[int]:
    """Betti numbers of a direct sum: the product of the Poincaré polynomials."""
    out = [1]
    for part in parts:
        factor = BETTI[part]
        prod = [0] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor):
                prod[i + j] += a * b
        out = prod
    return out


def permuted_algebra(parts: list[str], rng: random.Random) -> dict:
    """A direct sum with its basis order shuffled; ideals are given as rows."""
    labels, brackets = direct_sum(parts)
    order = list(labels)
    rng.shuffle(order)
    index = {name: k for k, name in enumerate(order)}

    def unit_rows(names: list[str]) -> list[list[int]]:
        rows = []
        for name in names:
            row = [0] * len(order)
            row[index[name]] = 1
            rows.append(row)
        return rows

    h3 = parts.index("h3")
    return {
        "labels": order,
        "brackets": [[a, b, sorted(c.items())] for (a, b), c in sorted(brackets.items())],
        "betti": kunneth(parts),
        # the Heisenberg centre: not complemented by a subalgebra
        "centre": unit_rows([f"z{h3}"]),
        # the whole Heisenberg summand: a direct summand, so it splits
        "summand": unit_rows([f"p{h3}", f"q{h3}", f"z{h3}"]),
    }


def lie_inputs(seed: int) -> dict:
    rng = random.Random(f"lie_homology:{seed}")
    return {
        "dim9": permuted_algebra(["sl2", "sl2", "h3"], rng),
        "dim10": permuted_algebra(["sl2", "sl2", "h3", "a1"], rng),
    }


# -- spec files -----------------------------------------------------------------

SPEC_VARS = ("x1", "x2", "x3", "x4", "x5")


def _poly_text(terms: dict) -> str:
    """Spec-grammar text of a polynomial given as {exponent: coefficient}."""
    chunks = []
    for exp, coeff in sorted(terms.items(), reverse=True):
        mono = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(SPEC_VARS, exp) if e
        )
        mag = abs(coeff)
        body = mono if mono and mag == 1 else f"{mag}*{mono}" if mono else f"{mag}"
        sign = "-" if coeff < 0 else "+"
        chunks.append(f"{sign} {body}")
    text = " ".join(chunks) or "0"
    return text[2:] if text.startswith("+ ") else text


def _random_poly(rng: random.Random, degree: int, nterms: int) -> dict:
    terms: dict = {}
    for _ in range(nterms):
        exp = [0] * len(SPEC_VARS)
        for _ in range(rng.randint(0, degree)):
            exp[rng.randrange(len(SPEC_VARS))] += 1
        _add(terms, tuple(exp), rng.choice([-3, -2, -1, 1, 2, 3]))
    return terms


def _vector_field(rng: random.Random, degree: int) -> dict:
    """{variable index: coefficient polynomial} with at least one component."""
    field = {}
    for i in range(len(SPEC_VARS)):
        if rng.random() < 0.7:
            poly = _random_poly(rng, degree, 2)
            if poly:
                field[i] = poly
    return field or {0: {(1, 0, 0, 0, 0): 1}}


def _field_text(field: dict) -> list[str]:
    return [f"({_poly_text(c)}) * d/d{SPEC_VARS[i]}" for i, c in sorted(field.items())]


def _unimodular(n: int, rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """A random integer matrix of determinant +-1 and its integer inverse.

    It is S P U: U adds each basis vector's successor to it (fixed), P
    permutes and S flips signs (both from the seed).  P and S leave the
    number of structure constants alone, so the homology work of the
    twisted algebra hardly depends on the seed; with a random product of
    shears it varied fivefold.
    """
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in m]
    for i in range(n - 1):
        # row_i += row_(i+1) on m; the inverse gets col_(i+1) -= col_i
        m[i] = [a + b for a, b in zip(m[i], m[i + 1])]
        for row in inv:
            row[i + 1] -= row[i]
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice([-1, 1]) for _ in range(n)]
    m = [[signs[k] * x for x in m[order[k]]] for k in range(n)]
    inv = [[row[order[k]] * signs[k] for k in range(n)] for row in inv]
    return m, inv


def twisted_algebra(parts: list[str], rng: random.Random) -> dict:
    """A direct sum in the basis b_i = sum_k M[i][k] e_k for unimodular M."""
    labels, brackets = direct_sum(parts)
    n = len(labels)
    index = {name: k for k, name in enumerate(labels)}
    m, inv = _unimodular(n, rng)
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (a, b), combo in brackets.items():
        for c, v in combo.items():
            table[index[a]][index[b]][index[c]] += v
            table[index[b]][index[a]][index[c]] -= v
    new = [f"b{k + 1}" for k in range(n)]
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            # [b_i, b_j] in old coordinates, then e_c = sum_d inv[c][d] b_d
            old = [Fraction(0)] * n
            for k in range(n):
                for l in range(n):
                    if m[i][k] and m[j][l]:
                        for c in range(n):
                            old[c] += m[i][k] * m[j][l] * table[k][l][c]
            coords = [sum(old[c] * inv[c][d] for c in range(n)) for d in range(n)]
            if any(coords):
                relations.append((new[i], new[j], coords))
    h3 = parts.index("h3")
    # row index[e] of the inverse is the old basis vector e in the new basis
    return {
        "labels": new,
        "relations": relations,
        "betti": kunneth(parts),
        "centre": [inv[index[f"z{h3}"]]],
        "summand": [inv[index[f"{x}{h3}"]] for x in "pqz"],
    }


def _combo_text(labels: list[str], coords) -> str:
    chunks = []
    for name, c in zip(labels, coords):
        if not c:
            continue
        mag = abs(Fraction(c))
        body = name if mag == 1 else f"{mag}*{name}"
        chunks.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(chunks)
    return text[2:] if text.startswith("+ ") else text


def spec_document(rng: random.Random, extra_a1: int) -> dict:
    """One spec file's text plus what the checker needs to know about it.

    The seed picks coefficients, variables and the basis change; the shapes
    (ideal exponents, algebra summands) are fixed, so that the work of a
    file varies little from seed to seed.
    """
    n = len(SPEC_VARS)
    q = {(i, j): rng.choice([-3, -2, -1, 1, 2, 3]) for i in range(n) for j in range(i + 1, n)}
    leaf_vars = sorted(rng.sample(range(n), 2))
    point = [0 if i in leaf_vars else rng.choice([-2, -1, 1, 2, 3]) for i in range(n)]
    # a monomial ideal (x_a^2 x_b^2, x_c^2 x_d) for the derivation slice
    a, b, c, d = rng.sample(range(n), 4)
    mono_gens = [
        tuple(2 if i in (a, b) else 0 for i in range(n)),
        tuple({c: 2, d: 1}.get(i, 0) for i in range(n)),
    ]
    u = _vector_field(rng, 2)
    v = _vector_field(rng, 2)
    weights = [rng.choice([-2, -1, 1, 2]) for _ in range(n)]
    section = _vector_field(rng, 1)
    alpha = rng.sample(range(n), 2)
    algebra = twisted_algebra(["sl2", "h3", "a1"] + ["a1"] * extra_a1, rng)

    lines = ["[variables]", ", ".join(SPEC_VARS), "", "[bivector]"]
    for (i, j), c in sorted(q.items()):
        lines.append(f"{SPEC_VARS[i]} ^ {SPEC_VARS[j]} = {c}*{SPEC_VARS[i]}*{SPEC_VARS[j]}")
    lines += ["", "[ideal leaf]"] + [SPEC_VARS[i] for i in leaf_vars]
    lines += ["", "[ideal mono]"] + [_poly_text({e: 1}) for e in mono_gens]
    lines += ["", "[multivector u]"] + _field_text(u)
    lines += ["", "[multivector v]"] + _field_text(v)
    lines += ["", "[multivector euler]"]
    lines += [f"{w}*{SPEC_VARS[i]} * d/d{SPEC_VARS[i]}" for i, w in enumerate(weights)]
    lines += ["", "[multivector pi]"]
    lines += [
        f"{c}*{SPEC_VARS[i]}*{SPEC_VARS[j]} * d/d{SPEC_VARS[i]} ^ d/d{SPEC_VARS[j]}"
        for (i, j), c in sorted(q.items())
    ]
    lines += ["", "[multivector s]"] + _field_text(section)
    lines += ["", "[form a]", f"d{SPEC_VARS[alpha[0]]} + 2*{SPEC_VARS[alpha[1]]} * d{SPEC_VARS[alpha[1]]}"]
    lines += ["", "[lie_algebra g]", "basis = " + ", ".join(algebra["labels"])]
    for a, b, coords in algebra["relations"]:
        lines.append(f"[{a}, {b}] = {_combo_text(algebra['labels'], coords)}")
    point_text = ", ".join(str(c) for c in point)
    lines += ["", "[query check-poisson]"]
    lines += ["", "[query schouten]", "left = u", "right = v"]
    lines += ["", "[query schouten]", "left = euler", "right = pi"]
    lines += ["", "[query leaf-connection]", "ideal = leaf", "alpha = a", "section = s", f"point = {point_text}"]
    for grade in (1, 2, 3):
        lines += ["", "[query flat-sections]", "ideal = leaf", f"point = {point_text}", f"grade = {grade}"]
    lines += ["", "[query der-basis]", "ideal = mono", "degree = 3"]
    lines += ["", "[query lie-homology]", "algebra = g"]
    for key in ("centre", "summand"):
        ideal = "; ".join(_combo_text(algebra["labels"], row) for row in algebra[key])
        lines += ["", "[query char-class]", "algebra = g", f"ideal = {ideal}"]
    return {
        "text": "\n".join(lines) + "\n",
        "u": {i: sorted(c.items()) for i, c in u.items()},
        "v": {i: sorted(c.items()) for i, c in v.items()},
        "mono": [list(e) for e in mono_gens],
        "betti": algebra["betti"],
    }


SPEC_FILES_PER_PASS = 3


def spec_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"spec_batch:{seed}")
    # algebras of dimension 7, 8, 7
    return [spec_document(rng, k % 2) for k in range(SPEC_FILES_PER_PASS)]
