"""Polynomial ideals with cached reduced Gröbner bases.

Completion is signature-based, in Roune and Stillman's form (2012,
"Practical Gröbner basis computation").  Each basis element g carries a
signature t*e_i: g is a combination of the generators whose largest module
term is t*f_i.  Signatures compare in the Schreyer order, by
``(key(t + lm(f_i)), i)``, and each element keeps its ratio
``rho = t + lm(f_i) - lm(g)`` beside its lead, so the multiple ``x^u * g``
has the signature ``(key(u + lm(g) + rho), i)``.  One heap holds the
candidate signatures, the e_i of the generators and the larger side of each
S-pair, and each is treated once, in ascending order.  A signature is
skipped when a known syzygy signature with the same index divides it: one
that reduced to zero, or the Koszul syzygy of a pair, which covers the
pairs with coprime leads.  Otherwise its rewriter (of the elements whose
signature divides it, the one whose multiple has the smallest lead, the
latest on ties) is multiplied up and reduced regularly, only by multiples of
smaller signature.  A multiple whose lead no element reduces regularly is
singular and adds nothing.  These criteria see the syzygies that make most
S-pairs reduce to zero, which no lcm test can.  One pass in ascending lead
order keeps a minimal basis, and each survivor is tail-reduced against the
others.  The result is monic and inter-reduced, so it is the unique
reduced Gröbner basis for the ideal and the chosen monomial order, which
makes ``normal_form`` canonical and ``contains`` decidable.

Inputs and outputs are exact ``Fraction`` polynomials, but division runs
fraction-free on the primitive integer forms that each
:class:`~leafconn.poly.Polynomial` caches: integer pseudo-division with one
rational scale tracked beside the work, rescaled in place, and the content
cancelled lazily (once the lead multipliers since the last cancellation
pass ``_CONTENT_BITS`` bits, and at the end).  The integer work is always a
nonzero multiple of the exact work, so every step, and the remainder, is
the one exact division gives; the remainder comes back with its primitive
form and lead already memoized.  Each step's leading work term is the last
entry of an ascending list of order keys.  Only divisors whose lead's
support bitmask lies inside the term's are tested for divisibility, and the
exponents of each multiple ``x^u * g`` are memoized on ``g``, so a repeated
(divisor, shift) pair is not rebuilt.  Completion multiplies its rewriters
up with the same shift (``Polynomial._shift``), which keeps their
coefficients and primitive form, and makes each new element monic from its
primitive form, so it forms no ``Fraction`` products.

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

from .poly import MONOMIAL_ORDERS, ContextMismatch, Polynomial, VarContext, _from_primitive, _point

Exponent = tuple[int, ...]


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(map(le, a, b))


def _exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(sub, a, b))


def _exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def _monic(p: Polynomial, key) -> Polynomial:
    """``p`` divided by its leading coefficient, read off its primitive form."""
    lead, _ = p.leading_term(key)
    ints, _ = p._primitive()
    lc = ints[lead]
    if lc < 0:
        ints = {e: -v for e, v in ints.items()}
    monic = _from_primitive(p.context, ints, Fraction(1, abs(lc)))
    monic._memo[key] = (lead, monic._terms[lead])
    return monic


def _support(exponent: Exponent) -> int:
    """The bitmask of the variables that occur in ``exponent``."""
    mask = 0
    for i, e in enumerate(exponent):
        if e:
            mask |= 1 << i
    return mask


# The work's content is cancelled once the lead multipliers since the last
# cancellation have grown it by more than this many bits, and at the end.
_CONTENT_BITS = 64


def normal_form_against(p: Polynomial, basis: Sequence[Polynomial], key, *, signature=None) -> Polynomial:
    """Full remainder of ``p`` under multivariate division by ``basis``.

    Every remainder term is reduced, so the result has no term divisible by
    the leading monomial of an admitted divisor.  Deterministic: the first
    admitted divisor in basis order wins at each step.  Without
    ``signature`` every divisor is admitted.  With ``signature=(ratios,
    bound)``, ``ratios[k] = (rho, i)`` describes ``basis[k]``: the multiple
    ``x^(a - lead) * basis[k]`` that reduces the term ``x^a`` has the
    signature ``(key(a + rho), i)``, and the divisor is admitted only when
    that signature is strictly below ``bound`` (a regular reduction).

    A lead can divide a term only when the lead's variables all occur in
    the term, so each term's support bitmask picks, once per mask and in
    basis order, the divisors whose leads are tested.  The exponents of
    each multiple ``x^shift * g`` are memoized on ``g`` (see
    ``Polynomial._shifted``), so a repeated (divisor, shift) pair is not
    rebuilt.

    The division runs on primitive integer forms: the exact work, with the
    remainder terms found so far, is always ``scale / grown`` times the
    integer terms.  Each step multiplies them in place by ``m = lc_g / d``
    (and ``grown`` by ``m``) and subtracts ``(c / d) * x^shift * g_int``
    (``d = gcd(c, lc_g)``), which is the exact step up to that nonzero
    factor, so every step selects the same term and divisor as exact
    division would.  Content is cancelled lazily, and only then does
    ``scale`` absorb it and ``grown``: once ``grown`` exceeds
    ``_CONTENT_BITS`` bits, and at the end, so the remainder comes back
    with its primitive form in its memo.
    """
    ratios, bound = signature if signature is not None else ([None] * len(basis), None)
    divisors = []
    for g, ratio in zip(basis, ratios):
        g_exp, _ = g.leading_term(key)
        g_ints, _ = g._primitive()
        divisors.append((_support(g_exp), (g_exp, g_ints[g_exp], g, g_ints, ratio)))
    by_support: dict[int, list] = {}
    ints, scale = p._primitive()
    work = dict(ints)
    # Each exponent's order key is computed once, when it enters the work.
    # Every term a step adds lies below the term it reduces, so the keys
    # wait in one ascending list and the leading work term is its last
    # entry; a key whose term cancelled stays there and is skipped.
    keys = {e: key(e) for e in work}
    exponents = {k: e for e, k in keys.items()}
    pending = sorted(exponents)
    remainder: dict[Exponent, int] = {}
    grown = 1  # the product of the multipliers since the last cancellation
    while pending:
        exponent = exponents[pending.pop()]
        c = work.get(exponent)
        if c is None:
            continue
        mask = _support(exponent)
        candidates = by_support.get(mask)
        if candidates is None:
            candidates = by_support[mask] = [d for g_mask, d in divisors if g_mask & mask == g_mask]
        for g_exp, lc, g, g_ints, ratio in candidates:
            # _divides, inlined in the hot loop, then the signature guard.
            if all(map(le, g_exp, exponent)) and (
                ratio is None or (key(tuple(map(add, exponent, ratio[0]))), ratio[1]) < bound
            ):
                d = gcd(c, lc) if lc > 0 else -gcd(c, lc)
                m, q = lc // d, c // d
                if m != 1:
                    for terms in (work, remainder):
                        for e, v in terms.items():
                            terms[e] = v * m
                    grown *= m
                # m * c == q * lc, so the term at exponent cancels here.
                for e, v in zip(g._shifted(_exp_sub(exponent, g_exp)), g_ints.values()):
                    v = work.get(e, 0) - q * v
                    if v:
                        work[e] = v
                        if e not in keys:
                            k = keys[e] = key(e)
                            exponents[k] = e
                            insort(pending, k)
                    else:
                        del work[e]
                if grown.bit_length() > _CONTENT_BITS:
                    content = gcd(*work.values(), *remainder.values())
                    if content > 1:
                        for terms in (work, remainder):
                            for e, v in terms.items():
                                terms[e] = v // content
                    scale *= Fraction(content, grown)
                    grown = 1
                break
        else:
            remainder[exponent] = work.pop(exponent)
    if not remainder:
        return _from_primitive(p.context, remainder, Fraction(1))
    content = gcd(*remainder.values())
    if content > 1:
        remainder = {e: v // content for e, v in remainder.items()}
    r = _from_primitive(p.context, remainder, scale * Fraction(content, grown))
    # Terms leave the work in descending order, so the first is the lead.
    lead = next(iter(remainder))
    r._memo[key] = (lead, r._terms[lead])
    return r


def s_polynomial(f: Polynomial, g: Polynomial, key) -> Polynomial:
    """``x^a f / lc(f) - x^b g / lc(g)`` with ``x^a lm(f) = x^b lm(g)`` the lcm."""
    f_exp, f_coeff = f.leading_term(key)
    g_exp, g_coeff = g.leading_term(key)
    lcm = _exp_lcm(f_exp, g_exp)
    f_factor = Polynomial.monomial(f.context, _exp_sub(lcm, f_exp), 1 / f_coeff)
    g_factor = Polynomial.monomial(g.context, _exp_sub(lcm, g_exp), 1 / g_coeff)
    return f_factor * f - g_factor * g


def _add_minimal(monomials: list[Exponent], t: Exponent) -> None:
    """Add ``t`` to a list of exponents kept minimal under divisibility."""
    if not any(_divides(s, t) for s in monomials):
        monomials[:] = [s for s in monomials if not _divides(t, s)]
        monomials.append(t)


def buchberger(generators: Sequence[Polynomial], key) -> list[Polynomial]:
    """The reduced Gröbner basis of the ideal spanned by ``generators``."""
    gens = [g for g in generators if not g.is_zero]
    gen_leads = [g.leading_term(key)[0] for g in gens]
    basis: list[Polynomial] = []
    leads: list[Exponent] = []
    multipliers: list[Exponent] = []  # t of each element's signature t*e_i
    ratios: list[tuple[Exponent, int]] = []  # (t + lm(f_i) - lead, i) of each element
    syzygies: list[list[Exponent]] = [[] for _ in gens]  # per index i, the t of known syzygies t*e_i

    def signature(m: Exponent, k: int) -> tuple:
        """``(key, i)`` of the signature of the multiple of element k with lead m."""
        rho, i = ratios[k]
        return key(tuple(map(add, m, rho))), i

    def larger_side(m: Exponent, k: int, h: int) -> tuple | None:
        """The larger signature of the multiples of elements k and h with lead m,
        as a queue entry, or None when the two are equal."""
        a, b = signature(m, k), signature(m, h)
        if a == b:
            return None
        g = k if a > b else h
        return (*max(a, b), tuple(map(add, multipliers[g], map(sub, m, leads[g]))))

    def known_syzygy(i: int, t: Exponent) -> bool:
        return any(_divides(s, t) for s in syzygies[i])

    # Queue entries are (key, i, t) for t*e_i, so they pop in the Schreyer order.
    queue = [(key(lead), i, (0,) * len(lead)) for i, lead in enumerate(gen_leads)]
    heapq.heapify(queue)
    last = None
    while queue:
        entry = heapq.heappop(queue)
        if entry == last:
            continue
        last = entry
        _, i, t = entry
        bound = entry[:2]
        if known_syzygy(i, t):
            continue
        mono = tuple(map(add, t, gen_leads[i]))
        # The rewriter: of the elements whose signature divides t*e_i, the one
        # whose multiple has the smallest lead, the latest on ties.
        rewriters = [
            (tuple(map(sub, mono, rho)), k)
            for k, (rho, j) in enumerate(ratios)
            if j == i and _divides(multipliers[k], t)
        ]
        if rewriters:
            lead, k = min(rewriters, key=lambda r: (key(r[0]), -r[1]))
            # A lead that no element reduces regularly makes t*e_i singular.
            if not any(_divides(leads[h], lead) and signature(lead, h) < bound for h in range(len(basis))):
                continue
            p = basis[k]._shift(tuple(map(sub, t, multipliers[k])))
        else:
            p = gens[i]
        remainder = normal_form_against(p, basis, key, signature=(ratios, bound))
        if remainder.is_zero:
            _add_minimal(syzygies[i], t)
            continue
        lead = remainder.leading_term(key)[0]
        new = len(basis)
        basis.append(_monic(remainder, key))
        leads.append(lead)
        multipliers.append(t)
        ratios.append((tuple(map(sub, mono, lead)), i))
        for k in range(new):
            # The larger side of the Koszul syzygy lead_k * new - lead * k is a
            # syzygy; the larger side of the S-pair is queued unless a known one divides it.
            side = larger_side(tuple(map(add, lead, leads[k])), new, k)
            if side:
                _add_minimal(syzygies[side[1]], side[2])
            side = larger_side(_exp_lcm(lead, leads[k]), new, k)
            if side and not known_syzygy(side[1], side[2]):
                heapq.heappush(queue, side)
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
    generators = [
        Polynomial.variable(context, name) - Polynomial.constant(context, value)
        for name, value in zip(context.names, _point(context, point))
    ]
    return Ideal(context, generators, order)
