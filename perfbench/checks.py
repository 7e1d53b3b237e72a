"""Output checks against references that do not come from leafconn.

Each ``check_*`` function takes the workload's plain-data description and
one pass's outputs and returns one verdict per query: ``None`` when the
output is right, otherwise a short reason.  None of them import leafconn.

* groebner: reduced bases equal ``sympy.groebner(..., domain="QQ")``, read
  from ``data/groebner_refs.json`` or, for inputs not listed there,
  computed with sympy when the run ends.
* lie_homology: Betti numbers are Künneth products of the summands'
  known ones; the obstruction class is nonzero for the Heisenberg centre
  and zero for a direct summand.
* spec_batch: each report block is checked on its own terms (Lie bracket of
  vector fields recomputed here, derivations tested for monomial-ideal
  membership by divisibility, Künneth dims, char-class verdicts), and the
  report bytes must equal the pinned digests of ``data/spec_reports.json``
  for the seeds listed there.
"""
from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import workloads

DATA = Path(__file__).resolve().parent / "data"


# -- groebner -------------------------------------------------------------------


def system_digest(system: dict) -> str:
    """Identifies a system by its inputs, whatever seed produced it."""
    key = [system["vars"], system["order"], [[[list(e), str(c)] for e, c in p] for p in system["polys"]]]
    return hashlib.sha256(json.dumps(key).encode()).hexdigest()


def canonical_basis(basis: list) -> list[str]:
    """Order-free form of a basis given as lists of [exponent, "p/q"] terms."""
    return sorted(json.dumps(sorted([list(e), str(Fraction(c))] for e, c in poly)) for poly in basis)


def sympy_basis(system: dict) -> list:
    import sympy

    gens = sympy.symbols(system["vars"])
    exprs = [
        sympy.Add(*[sympy.Rational(str(c)) * sympy.Mul(*[g**k for g, k in zip(gens, e)]) for e, c in p])
        for p in system["polys"]
    ]
    result = sympy.groebner(exprs, *gens, order=system["order"], domain="QQ")
    return [[[list(e), str(Fraction(str(c)))] for e, c in poly.terms()] for poly in result.polys]


def load_groebner_refs() -> dict:
    path = DATA / "groebner_refs.json"
    return json.loads(path.read_text()) if path.exists() else {}


def groebner_references(systems: list[dict]) -> dict:
    """Reference basis per system name: committed data first, sympy otherwise."""
    committed = load_groebner_refs()
    refs = {}
    for system in systems:
        digest = system_digest(system)
        basis = committed[digest]["basis"] if digest in committed else sympy_basis(system)
        refs[system["name"]] = canonical_basis(basis)
    return refs


def check_groebner(refs: dict, queries: list[dict]) -> list:
    out = []
    for q in queries:
        if q["error"]:
            out.append(q["error"])
        elif canonical_basis(q["output"]) != refs[q["name"]]:
            out.append(f"{q['name']}: basis differs from the sympy reference")
        else:
            out.append(None)
    return out


# -- lie_homology ---------------------------------------------------------------


def check_lie(inputs: dict, queries: list[dict]) -> list:
    betti9, betti10 = inputs["dim9"]["betti"], inputs["dim10"]["betti"]
    expected = {
        "homology-dim9": [[b, b] for b in betti9],
        "homology-dim10": [[b, b] for b in betti10],
        "cohomology-dim9": betti9,
        # centre of h3: quotient sl2+sl2+a2, class e*^f* -> [z], nonzero
        "charclass-centre": (False, 1),
        # the whole h3 summand: V/[V,V] is 2-dim and the ideal splits
        "charclass-summand": (True, 2),
    }
    out = []
    for q in queries:
        want = expected[q["name"]]
        if q["error"]:
            out.append(q["error"])
        elif q["name"].startswith("charclass"):
            got = (q["output"]["zero"], q["output"]["h1_dim"])
            out.append(None if got == want else f"{q['name']}: (zero, h1_dim) = {got}, expected {want}")
        else:
            out.append(None if q["output"] == want else f"{q['name']}: {q['output']} != Künneth {want}")
    return out


# -- spec_batch: printed polynomials and fields ----------------------------------

def parse_poly(text: str, names: tuple) -> dict:
    """A polynomial as leafconn prints it, e.g. ``-2/3*x1^2*x4 + 5``."""
    text = text.strip()
    if text == "0":
        return {}
    terms: dict = {}
    for sign, body in _split_top(text):
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        factors = body.split("*")
        coeff = Fraction(factors.pop(0)) if factors[0][:1].isdigit() else Fraction(1)
        exp = [0] * len(names)
        for factor in factors:
            name, _, power = factor.partition("^")
            exp[names.index(name)] += int(power or 1)
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + sign * coeff
    return {e: c for e, c in terms.items() if c}


def _split_top(text: str) -> list[tuple[int, str]]:
    """Split a printed field at top-level ' + ' / ' - ' into signed chunks."""
    chunks, depth, start, sign = [], 0, 0, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith((" + ", " - "), i):
            chunks.append((sign, text[start:i]))
            sign = 1 if text[i + 1] == "+" else -1
            start = i + 3
            i += 3
            continue
        i += 1
    chunks.append((sign, text[start:]))
    return chunks


def parse_field(text: str, names: tuple) -> dict:
    """A printed multivector field: {blade tuple: {exponent: coefficient}}."""
    if text.strip() == "0":
        return {}
    field: dict = {}
    for sign, chunk in _split_top(text.strip()):
        chunk = chunk.strip()
        if chunk.startswith("-"):
            sign, chunk = -sign, chunk[1:]
        parts = chunk.split(" * ")
        blade_text = parts[-1]
        coeff_text = " * ".join(parts[:-1]) if len(parts) > 1 else "1"
        if coeff_text.startswith("(") and coeff_text.endswith(")"):
            coeff_text = coeff_text[1:-1]
        blade = tuple(sorted(names.index(b.strip()[3:]) for b in blade_text.split("^")))
        coeff = {e: sign * c for e, c in parse_poly(coeff_text, names).items()}
        field[blade] = coeff
    return field


def _partial(poly: dict, i: int) -> dict:
    out = {}
    for e, c in poly.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = out.get(tuple(d), 0) + c * e[i]
    return out


def lie_bracket(u: dict, v: dict, n: int) -> dict:
    """[u, v]_i = sum_k u_k d_k v_i - v_k d_k u_i, on {index: {exp: coeff}}."""
    out = {}
    for i in range(n):
        acc: dict = {}
        for a, b, s in ((u, v, 1), (v, u, -1)):
            for k, ck in a.items():
                for e1, c1 in ck.items():
                    for e2, c2 in _partial(b.get(i, {}), k).items():
                        e = tuple(x + y for x, y in zip(e1, e2))
                        acc[e] = acc.get(e, 0) + s * c1 * c2
        acc = {e: c for e, c in acc.items() if c}
        if acc:
            out[(i,)] = acc
    return out


def _divisible(exp, gens) -> bool:
    return any(all(x >= g for x, g in zip(exp, gen)) for gen in gens)


def preserves_monomial_ideal(field: dict, gens: list) -> bool:
    """X(g) lies in the monomial ideal for each generator: every surviving
    term of X(g) is divisible by a generator."""
    for gen in gens:
        image: dict = {}
        for (i,), coeff in field.items():
            if not gen[i]:
                continue
            lowered = list(gen)
            lowered[i] -= 1
            for e, c in coeff.items():
                m = tuple(x + y for x, y in zip(e, lowered))
                image[m] = image.get(m, 0) + c * gen[i]
        if any(c and not _divisible(m, gens) for m, c in image.items()):
            return False
    return True


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [r[:] for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for k in range(len(rows)):
            if k != rank and rows[k][col]:
                f = rows[k][col] / rows[rank][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[rank])]
        rank += 1
    return rank


def der_dimension(gens: list, n: int, degree: int) -> int:
    """Dimension of {X : deg X <= degree, X(g) in I} for a monomial ideal I.

    The conditions respect the multigrading where x^m d_i has degree
    m - e_i, so the space splits by multidegree.  In degree delta the
    unknowns are the c_i of x^(delta+e_i) d_i, and each generator a whose
    image monomial x^(delta+a) is outside I gives sum_i a_i c_i = 0.
    """
    groups: dict = {}
    monos = list(_exponents(n, degree))
    for i in range(n):
        for m in monos:
            delta = tuple(x - (j == i) for j, x in enumerate(m))
            groups.setdefault(delta, []).append(i)
    dim = 0
    for delta, unknowns in groups.items():
        rows = []
        for a in gens:
            if not any(a[i] for i in unknowns):
                continue
            target = tuple(d + x for d, x in zip(delta, a))
            if not _divisible(target, gens):
                rows.append([Fraction(a[i]) for i in unknowns])
        dim += len(unknowns) - _rank(rows)
    return dim


def _exponents(n: int, degree: int):
    if n == 0:
        yield ()
        return
    for e in range(degree + 1):
        for rest in _exponents(n - 1, degree - e):
            yield (e,) + rest


def _independent_mod_p(fields: list[dict], p: int = (1 << 61) - 1) -> bool:
    """Linear independence of fields, checked by elimination modulo a prime
    (independence mod p implies independence over the rationals)."""
    pivots: dict = {}
    for field in fields:
        row = {}
        for (i,), coeff in field.items():
            for e, c in coeff.items():
                row[(i, e)] = c.numerator * pow(c.denominator, -1, p) % p
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], -1, p)
                pivots[col] = {k: v * inv % p for k, v in row.items()}
                break
            factor = row[col]
            for k, v in pivots[col].items():
                row[k] = (row.get(k, 0) - factor * v) % p
                if not row[k]:
                    del row[k]
        else:
            return False
    return True


def parse_report(text: str) -> list[tuple[str, dict]]:
    blocks = []
    for block in text.strip().split("\n\n"):
        lines = block.splitlines()
        kind = lines[0].split(": ", 1)[1].rstrip("]")
        blocks.append((kind, dict(line.split(" = ", 1) for line in lines[1:])))
    return blocks


def check_report(doc: dict, text: str) -> list:
    """One verdict per query block of a spec_batch report."""
    names = workloads.SPEC_VARS
    n = len(names)
    blocks = parse_report(text)
    kinds = [k for k, _ in blocks]
    expected_kinds = re.findall(r"^\[query ([\w-]+)\]$", doc["text"], re.MULTILINE)
    if kinds != expected_kinds:
        return [f"report has blocks {kinds}"] * len(expected_kinds)
    u, v = ({i: {tuple(e): Fraction(c) for e, c in terms} for i, terms in doc[key].items()} for key in "uv")
    verdicts = []
    for number, (kind, f) in enumerate(blocks):
        try:
            ok = f.get("status") in ("ok", "poisson")
            if kind == "check-poisson":
                ok = f["status"] == "poisson" and f["defect"] == "0"
            elif kind == "schouten" and f["left"] == "u":
                ok = ok and parse_field(f["bracket"], names) == lie_bracket(u, v, n)
            elif kind == "schouten":
                # torus-invariant: a diagonal linear field commutes with a log-canonical bivector
                ok = ok and f["bracket"] == "0" and f["grade"] == "2"
            elif kind == "leaf-connection":
                # a readable representative; the class at the point has constant coordinates
                parse_field(f["representative"], names)
                constant = (0,) * n
                ok = ok and all(set(c) <= {constant} for c in parse_field(f["class_at_point"], names).values())
            elif kind == "flat-sections":
                blades = [] if f["transversal_basis"] == "(none)" else f["transversal_basis"].split(", ")
                flat = [] if f["flat_section_basis"] == "(none)" else f["flat_section_basis"].split("; ")
                ok = ok and f["flat"] == ("yes" if len(flat) == len(blades) else "no") and len(flat) <= len(blades)
            elif kind == "der-basis":
                gens = [tuple(g) for g in doc["mono"]]
                fields = [] if f["basis"] == "(none)" else [parse_field(t, names) for t in f["basis"].split("; ")]
                ok = (
                    ok
                    and int(f["basis_size"]) == len(fields) == der_dimension(gens, n, int(f["truncated_at"]))
                    and all(preserves_monomial_ideal(x, gens) for x in fields)
                    and _independent_mod_p(fields)
                )
            elif kind == "lie-homology":
                dims = [int(d) for d in f["dims"].split(", ")]
                ok = ok and dims == doc["betti"] and int(f["euler"]) == 0
            elif kind == "char-class":
                # the spec lists the centre's query before the summand's
                centre = number == len(blocks) - 2
                ok = ok and f["nonzero"] == ("yes" if centre else "no") and f["h1_dim"] == ("1" if centre else "2")
            verdicts.append(None if ok else f"query {number + 1} ({kind}) is wrong")
        except (KeyError, ValueError, IndexError) as exc:
            verdicts.append(f"query {number + 1} ({kind}) unreadable: {exc}")
    return verdicts


def load_report_pins() -> dict:
    path = DATA / "spec_reports.json"
    return json.loads(path.read_text()) if path.exists() else {}


def check_spec(docs: list[dict], queries: list[dict], reports: list, pins) -> list:
    """Verdicts for every query block of every file; ``pins`` is this seed's
    list of report digests, or None when the seed is not pinned."""
    out = []
    for k, (doc, q, text) in enumerate(zip(docs, queries, reports)):
        blocks = doc["text"].count("[query ")
        if q["error"] or q["output"] != 0 or text is None:
            out += [q["error"] or f"spec{k}: exit code {q['output']}"] * blocks
            continue
        verdicts = check_report(doc, text)
        if pins is not None and hashlib.sha256(text.encode()).hexdigest() != pins[k]:
            verdicts = [v or f"spec{k}: report bytes differ from the pinned report" for v in verdicts]
        out += verdicts
    return out
