"""Polynomial ideals with cached reduced Gröbner bases.

Buchberger's algorithm with the Gebauer–Möller pair update and sugar
selection.  Leading monomials are computed once and kept beside the basis.
When an element joins the basis, the update (Becker–Weispfenning's form)
queues only the new pairs that no other new pair's lcm divides, one per
group of equal lcms, drops the new pairs with coprime leading monomials,
and drops each old pair whose lcm the new lead divides unless a side pair
has the same lcm.  Pending pairs wait in one heap, treated in ascending
``(sugar, key(lcm), i, j)`` order: a generator's sugar is its total degree,
a pair's is the larger of its two sides' sugars raised to the lcm, and a
new element inherits its pair's.  One pass in ascending lead order keeps a
minimal basis, and each survivor is tail-reduced against the others.  The
result is monic and inter-reduced, so it is the unique reduced Gröbner basis
for the ideal and the chosen monomial order, which makes ``normal_form``
canonical and ``contains`` decidable.

Inputs and outputs are exact ``Fraction`` polynomials, but division and
S-polynomials run fraction-free on the primitive integer forms that each
:class:`~leafconn.poly.Polynomial` caches: integer pseudo-division with the
content cancelled and one rational scale tracked beside the work.  The
integer work is always a nonzero multiple of the exact work, so every step,
and the remainder, is the one exact division gives.  Each step's leading
work term is the last entry of an ascending list of order keys.

An :class:`Ideal` is immutable; the basis is computed once on first use
(thread-safe via a lock) and cached.
"""
from __future__ import annotations

import heapq
import threading
from bisect import insort
from fractions import Fraction
from math import gcd
from operator import add, le, sub
from typing import Iterable, Sequence

from .poly import MONOMIAL_ORDERS, ContextMismatch, Polynomial, VarContext, _accumulate, _from_clean

Exponent = tuple[int, ...]


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(map(le, a, b))


def _exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(sub, a, b))


def _exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def _monic(p: Polynomial, key) -> Polynomial:
    _, coeff = p.leading_term(key)
    return p * (Fraction(1) / coeff)


def normal_form_against(p: Polynomial, basis: Sequence[Polynomial], key) -> Polynomial:
    """Full remainder of ``p`` under multivariate division by ``basis``.

    Every remainder term is reduced, so the result has no term divisible by
    any basis leading monomial.  Deterministic: the first divisor in basis
    order wins at each step.

    The division runs on primitive integer forms: the exact work is always
    ``scale * work``.  Each step multiplies the work by ``lc_g / d`` and
    subtracts ``(c / d) * x^shift * g_int`` (``d = gcd(c, lc_g)``), which is
    the exact step up to that nonzero factor, so every step selects the
    same term and divisor as exact division would.  When the scale changed,
    the content of the work moves into the scale.  A term that no lead
    divides leaves the work exactly, as ``c * scale``.
    """
    divisors = []
    for g in basis:
        g_exp, _ = g.leading_term(key)
        g_ints, _ = g._primitive()
        divisors.append((g_exp, g_ints[g_exp], g_ints))
    ints, scale = p._primitive()
    work = dict(ints)
    # Each exponent's order key is computed once, when it enters the work.
    # Every term a step adds lies below the term it reduces, so the keys
    # wait in one ascending list and the leading work term is its last
    # entry; a key whose term cancelled stays there and is skipped.
    keys = {e: key(e) for e in work}
    exponents = {k: e for e, k in keys.items()}
    pending = sorted(exponents)
    remainder: dict[Exponent, Fraction] = {}
    while pending:
        exponent = exponents[pending.pop()]
        c = work.get(exponent)
        if c is None:
            continue
        for g_exp, lc, g_ints in divisors:
            if all(map(le, g_exp, exponent)):  # _divides, inlined in the hot loop
                d = gcd(c, lc) if lc > 0 else -gcd(c, lc)
                m, q = lc // d, c // d
                if m != 1:
                    work = {e: v * m for e, v in work.items()}
                    scale /= m
                shift = _exp_sub(exponent, g_exp)
                # m * c == q * lc, so the term at exponent cancels here.
                for e, v in g_ints.items():
                    e = tuple(map(add, e, shift))
                    v = work.get(e, 0) - q * v
                    if v:
                        work[e] = v
                        if e not in keys:
                            k = keys[e] = key(e)
                            exponents[k] = e
                            insort(pending, k)
                    else:
                        del work[e]
                if m != 1:
                    content = gcd(*work.values())
                    if content > 1:
                        work = {e: v // content for e, v in work.items()}
                        scale *= content
                break
        else:
            remainder[exponent] = work.pop(exponent) * scale
    return _from_clean(p.context, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, key) -> Polynomial:
    """``x^a f / lc(f) - x^b g / lc(g)`` with ``x^a lm(f) = x^b lm(g)`` the lcm,
    built on the integer forms as ``(lc_g x^a f_int - lc_f x^b g_int) / (lc_f lc_g)``."""
    f_exp, _ = f.leading_term(key)
    g_exp, _ = g.leading_term(key)
    f_ints, _ = f._primitive()
    g_ints, _ = g._primitive()
    lc_f, lc_g = f_ints[f_exp], g_ints[g_exp]
    lcm = _exp_lcm(f_exp, g_exp)
    a, b = _exp_sub(lcm, f_exp), _exp_sub(lcm, g_exp)
    ints = {tuple(map(add, e, a)): lc_g * c for e, c in f_ints.items()}
    for e, c in g_ints.items():
        _accumulate(ints, tuple(map(add, e, b)), -lc_f * c)  # drops the cancelled lcm term
    if not ints:
        return Polynomial.zero(f.context)
    # The content takes the sign of lc_f * lc_g, so the scale is positive
    # as in Polynomial._primitive.
    content = gcd(*ints.values()) if lc_f * lc_g > 0 else -gcd(*ints.values())
    if content != 1:
        ints = {e: c // content for e, c in ints.items()}
    scale = Fraction(content, lc_f * lc_g)
    return _from_clean(f.context, {e: c * scale for e, c in ints.items()}, (ints, scale))


def buchberger(generators: Sequence[Polynomial], key) -> list[Polynomial]:
    """The reduced Gröbner basis of the ideal spanned by ``generators``."""
    basis = [_monic(g, key) for g in generators if not g.is_zero]
    leads = [g.leading_term(key)[0] for g in basis]
    sugars = [g.total_degree() for g in basis]
    pairs: list[tuple] = []  # heap of (sugar, key(lcm), i, j, lcm), i < j

    def update(h: int) -> None:
        """Gebauer–Möller: queue the useful pairs (k, h), drop old pairs h covers."""
        lead_h, sugar_h = leads[h], sugars[h]
        degree_h = sum(lead_h)
        lcms = [_exp_lcm(lead, lead_h) for lead in leads[:h]]
        coprime = [sum(lcm) == sum(lead) + degree_h for lead, lcm in zip(leads, lcms)]
        # Criterion M: drop (k, h) when a pending or kept new pair's lcm
        # divides its lcm; of equal lcms the last survives.  Coprime pairs
        # stay until all are seen, so that they still drop others.
        alive = [True] * h
        for k, lcm in enumerate(lcms):
            if not coprime[k]:
                alive[k] = not any(alive[m] and m != k and _divides(lcms[m], lcm) for m in range(h))
        # Drop (i, j) when lead(h) divides its lcm, unless (i, h) or (j, h)
        # has the same lcm.
        pairs[:] = [p for p in pairs if not _divides(lead_h, p[4]) or p[4] in (lcms[p[2]], lcms[p[3]])]
        heapq.heapify(pairs)
        for k, lcm in enumerate(lcms):
            if alive[k] and not coprime[k]:
                degree = sum(lcm)
                sugar = max(sugars[k] + degree - sum(leads[k]), sugar_h + degree - degree_h)
                heapq.heappush(pairs, (sugar, key(lcm), k, h, lcm))

    for h in range(len(basis)):
        update(h)
    while pairs:
        sugar, _, i, j, _ = heapq.heappop(pairs)
        remainder = normal_form_against(s_polynomial(basis[i], basis[j], key), basis, key)
        if not remainder.is_zero:
            basis.append(_monic(remainder, key))
            leads.append(basis[-1].leading_term(key)[0])
            sugars.append(sugar)
            update(len(basis) - 1)
    return _reduce_basis(basis, key)


def _reduce_basis(basis: list[Polynomial], key) -> list[Polynomial]:
    # Monomial orders refine divisibility, so a lead's divisors come before it
    # in ascending order.  Tail reduction keeps each monic lead, and so the order.
    leads = [g.leading_term(key)[0] for g in basis]
    keep: list[int] = []
    for i in sorted(range(len(basis)), key=lambda i: key(leads[i])):
        if not any(_divides(leads[k], leads[i]) for k in keep):
            keep.append(i)
    kept = [basis[i] for i in keep]
    return [normal_form_against(g, kept[:i] + kept[i + 1 :], key) for i, g in enumerate(kept)]


class Ideal:
    """A polynomial ideal given by generators, with a lazy reduced basis."""

    def __init__(self, context: VarContext, generators: Iterable[Polynomial] = (), order: str = "grevlex"):
        if order not in MONOMIAL_ORDERS:
            raise ValueError(f"unknown monomial order {order!r}")
        self.context = context
        self.order = order
        self.generators: tuple[Polynomial, ...] = tuple(g for g in generators if not g.is_zero)
        for g in self.generators:
            if g.context != context:
                raise ValueError("generator context does not match the ideal context")
        self._key = MONOMIAL_ORDERS[order]
        self._basis: list[Polynomial] | None = None
        self._lock = threading.Lock()

    @property
    def is_zero_ideal(self) -> bool:
        return not self.generators

    def groebner_basis(self) -> list[Polynomial]:
        """The reduced Gröbner basis (computed once, then cached)."""
        if self._basis is None:
            with self._lock:
                if self._basis is None:
                    self._basis = buchberger(list(self.generators), self._key)
        return list(self._basis)

    def normal_form(self, p: Polynomial) -> Polynomial:
        if p.context != self.context:
            raise ContextMismatch("polynomial context does not match the ideal context")
        basis = self.groebner_basis()
        if not basis:
            return p
        return normal_form_against(p, basis, self._key)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({gens}; order={self.order})"


def vanishing_ideal_of_point(context: VarContext, point: Sequence, order: str = "grevlex") -> Ideal:
    """The maximal ideal of polynomials vanishing at a rational point."""
    if len(point) != len(context):
        raise ValueError("point dimension does not match the context")
    generators = [
        Polynomial.variable(context, name) - Polynomial.constant(context, value)
        for name, value in zip(context.names, point)
    ]
    return Ideal(context, generators, order)
