"""Polynomial ideals with cached reduced Gröbner bases.

Buchberger's algorithm with the two classical shortcuts (skip pairs with
coprime leading monomials; skip pairs covered by an already-treated third
element).  Leading monomials are computed once and kept beside the basis;
pending pairs wait in one heap, treated in ascending ``(key(lcm), i, j)``
order.  One pass in ascending lead order keeps a minimal basis, and each
survivor is tail-reduced against the others.  The result is monic and
inter-reduced, so it is the unique reduced Gröbner basis for the ideal and
the chosen monomial order, which makes ``normal_form`` canonical and
``contains`` decidable.

An :class:`Ideal` is immutable; the basis is computed once on first use
(thread-safe via a lock) and cached.
"""
from __future__ import annotations

import heapq
import threading
from fractions import Fraction
from typing import Iterable, Sequence

from .poly import MONOMIAL_ORDERS, ContextMismatch, Polynomial, VarContext, _accumulate

Exponent = tuple[int, ...]


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def _exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def _monic(p: Polynomial, key) -> Polynomial:
    _, coeff = p.leading_term(key)
    return p * (Fraction(1) / coeff)


def normal_form_against(p: Polynomial, basis: Sequence[Polynomial], key) -> Polynomial:
    """Full remainder of ``p`` under multivariate division by ``basis``.

    Every remainder term is reduced, so the result has no term divisible by
    any basis leading monomial.  Deterministic: the first divisor in basis
    order wins at each step.
    """
    leads = [g.leading_term(key) for g in basis]
    work = dict(p._terms)
    remainder: dict[Exponent, Fraction] = {}
    while work:
        exponent = max(work, key=key)
        for g, (g_exp, g_coeff) in zip(basis, leads):
            if _divides(g_exp, exponent):
                factor = -work[exponent] / g_coeff
                shift = _exp_sub(exponent, g_exp)
                # Adds factor * x^shift * g, whose lead cancels the term at exponent.
                for e, c in g._terms.items():
                    _accumulate(work, tuple(a + b for a, b in zip(e, shift)), factor * c)
                break
        else:
            remainder[exponent] = work.pop(exponent)
    return Polynomial(p.context, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, key) -> Polynomial:
    f_exp, f_coeff = f.leading_term(key)
    g_exp, g_coeff = g.leading_term(key)
    lcm = _exp_lcm(f_exp, g_exp)
    f_factor = Polynomial.monomial(f.context, _exp_sub(lcm, f_exp), Fraction(1) / f_coeff)
    g_factor = Polynomial.monomial(g.context, _exp_sub(lcm, g_exp), Fraction(1) / g_coeff)
    return f_factor * f - g_factor * g


def buchberger(generators: Sequence[Polynomial], key) -> list[Polynomial]:
    """The reduced Gröbner basis of the ideal spanned by ``generators``."""
    basis = [_monic(g, key) for g in generators if not g.is_zero]
    leads = [g.leading_term(key)[0] for g in basis]
    pairs: list[tuple] = []  # heap of (key(lcm), i, j), i < j
    done: set[tuple[int, int]] = set()

    def add_pairs(new: int) -> None:
        for k in range(new):
            heapq.heappush(pairs, (key(_exp_lcm(leads[k], leads[new])), k, new))

    for new in range(len(basis)):
        add_pairs(new)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        lcm = _exp_lcm(leads[i], leads[j])
        # Coprime leading monomials: the S-polynomial reduces to zero.
        if lcm == tuple(a + b for a, b in zip(leads[i], leads[j])):
            continue
        # Chain criterion: a third element divides the lcm and both side
        # pairs are already treated.
        if any(
            k not in (i, j)
            and _divides(lead, lcm)
            and tuple(sorted((i, k))) in done
            and tuple(sorted((j, k))) in done
            for k, lead in enumerate(leads)
        ):
            continue
        remainder = normal_form_against(s_polynomial(basis[i], basis[j], key), basis, key)
        if not remainder.is_zero:
            basis.append(_monic(remainder, key))
            leads.append(basis[-1].leading_term(key)[0])
            add_pairs(len(basis) - 1)
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
        Polynomial.variable(context, name) - Polynomial.constant(context, Fraction(value))
        for name, value in zip(context.names, point)
    ]
    return Ideal(context, generators, order)
