"""Multivector fields, differential forms, and the graded calculus on them.

Components are stored sparsely on strictly increasing index tuples with
polynomial coefficients, so every object has one canonical representation.

Sign conventions (pinned; the test suite asserts all of them jointly):

* ``wedge`` orders factors by sorting indices, with the parity of the sort
  as sign.
* ``interior_product`` of a single basis field contracts the first slot:
  ``i_{d/dx_j}(dx_{i_1} ^ ... ^ dx_{i_q}) = sum_m (-1)^(m-1) [i_m = j] * rest``.
  For a decomposable multivector the factors contract innermost first:
  ``i_{X ^ Y} = i_X o i_Y``.
* ``lie_derivative`` along a grade-p multivector is
  ``L_X = i_X o d - (-1)^p d o i_X`` (Cartan's formula at p = 1).
* ``schouten_bracket`` extends the vector-field bracket by the monomial
  rule with prefactor ``(-1)^(m+1)``:
  ``[X_1^...^X_m, Y_1^...^Y_n] = (-1)^(m+1) * sum_{i,j} (-1)^(i+j)
  [X_i,Y_j] ^ X_1^...(drop i)...^X_m ^ Y_1^...(drop j)...^Y_n``,
  with ``[X, f] = X(f)`` in grade 0, extended by the Leibniz rule.

Under these choices the graded symmetry ``[U,V] = (-1)^(|U||V|) [V,U]``,
the Leibniz rule ``[U, V^W] = [U,V]^W + (-1)^((|U|+1)|V|) V^[U,W]``, the
graded Jacobi identity, and the mixed commutator rule
``L_X o i_Y - (-1)^((p-1)q) i_Y o L_X = (-1)^(p+1) i_[X,Y]`` for X of
grade p and Y of grade q all hold exactly; at p = 1 the last one is the
classical ``[L_X, i_Y] = i_[X,Y]``.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Union

from .poly import ContextMismatch, Polynomial, VarContext

Scalar = Union[Polynomial, Fraction, int]
IndexTuple = tuple[int, ...]


class GradeError(ValueError):
    """An operation received tensors of incompatible grades."""


def merge_sign(left: IndexTuple, right: IndexTuple) -> tuple[IndexTuple, int]:
    """Sorted concatenation of two increasing index tuples and its parity.

    Returns sign 0 when the tuples share an index.  This is the one blade
    sign kernel: every wedge, bracket and boundary sign goes through it.
    """
    inversions = 0
    for a in left:
        for b in right:
            if a == b:
                return (), 0
            if a > b:
                inversions += 1
    return tuple(sorted(left + right)), (-1 if inversions % 2 else 1)


def _accumulate(out: dict[IndexTuple, Polynomial], key: IndexTuple, value: Polynomial) -> None:
    """Add ``value`` into ``out[key]``; zero sums stay for the constructor to drop."""
    previous = out.get(key)
    out[key] = value if previous is None else previous + value


class _GradedTensor:
    """Shared storage and linear structure for multivectors and forms."""

    __slots__ = ("context", "grade", "_components")
    _basis_format = ""  # overridden

    def __init__(self, context: VarContext, grade: int, components: Mapping[IndexTuple, Polynomial] = ()):
        if grade < 0:
            raise GradeError(f"negative grade {grade}")
        if grade > len(context):
            # Anything of grade above the variable count is identically zero;
            # keep the declared grade but no components can exist.
            components = {}
        self.context = context
        self.grade = grade
        clean: dict[IndexTuple, Polynomial] = {}
        for indices, coeff in dict(components).items():
            indices = tuple(indices)
            if len(indices) != grade or any(not 0 <= i < len(context) for i in indices):
                raise ValueError(f"bad index tuple {indices!r} for grade {grade}")
            if any(a >= b for a, b in zip(indices, indices[1:])):
                raise ValueError(f"index tuple {indices!r} is not strictly increasing")
            if coeff.context != context:
                raise ContextMismatch("component context does not match the tensor context")
            if not coeff.is_zero:
                clean[indices] = coeff
        self._components = clean

    # -- linear structure --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._components

    def components(self) -> Iterator[tuple[IndexTuple, Polynomial]]:
        for indices in sorted(self._components):
            yield indices, self._components[indices]

    def coefficient(self, indices: IndexTuple) -> Polynomial:
        return self._components.get(tuple(indices), Polynomial.zero(self.context))

    def _check_compatible(self, other: "_GradedTensor") -> None:
        if type(self) is not type(other):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.context != other.context:
            raise ContextMismatch("tensor contexts differ")
        # The zero tensor belongs to every grade, so it never conflicts.
        if self.grade != other.grade and not self.is_zero and not other.is_zero:
            raise GradeError(f"grades differ: {self.grade} vs {other.grade}")

    def __add__(self, other: "_GradedTensor") -> "_GradedTensor":
        self._check_compatible(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        components = dict(self._components)
        for indices, coeff in other._components.items():
            _accumulate(components, indices, coeff)
        return type(self)(self.context, self.grade, components)

    def __neg__(self) -> "_GradedTensor":
        return type(self)(self.context, self.grade, {i: -c for i, c in self._components.items()})

    def __sub__(self, other: "_GradedTensor") -> "_GradedTensor":
        return self + (-other)

    def scale(self, factor: Scalar) -> "_GradedTensor":
        if not isinstance(factor, Polynomial):
            factor = Polynomial.constant(self.context, factor)
        return type(self)(
            self.context, self.grade, {i: factor * c for i, c in self._components.items()}
        )

    def __mul__(self, factor: Scalar) -> "_GradedTensor":
        return self.scale(factor)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other) or self.context != other.context:
            return NotImplemented if not isinstance(other, _GradedTensor) else False
        if self.grade != other.grade and not (self.is_zero and other.is_zero):
            return False
        return self._components == other._components

    def __hash__(self) -> int:
        # Grade is omitted so that zero tensors of every grade hash alike.
        return hash((type(self).__name__, self.context, frozenset(self._components.items())))

    # -- wedge -------------------------------------------------------------

    def wedge(self, other: "_GradedTensor") -> "_GradedTensor":
        if type(self) is not type(other):
            raise TypeError("wedge requires two tensors of the same kind")
        if self.context != other.context:
            raise ContextMismatch("tensor contexts differ")
        grade = self.grade + other.grade
        components: dict[IndexTuple, Polynomial] = {}
        for left, c1 in self._components.items():
            for right, c2 in other._components.items():
                merged, sign = merge_sign(left, right)
                if sign != 0:
                    _accumulate(components, merged, c1 * c2 * sign)
        return type(self)(self.context, grade, components)

    def __xor__(self, other: "_GradedTensor") -> "_GradedTensor":
        return self.wedge(other)

    # -- printing ----------------------------------------------------------

    def _blade_str(self, indices: IndexTuple) -> str:
        return " ^ ".join(self._basis_format.format(self.context.names[i]) for i in indices)

    def __str__(self) -> str:
        if not self._components:
            return "0"
        chunks: list[str] = []
        for indices, coeff in self.components():
            if not indices:
                term = str(coeff)
            else:
                blade = self._blade_str(indices)
                terms = list(coeff.terms())
                if len(terms) == 1:
                    if coeff == Polynomial.constant(self.context, 1):
                        term = blade
                    elif coeff == Polynomial.constant(self.context, -1):
                        term = f"-{blade}"
                    else:
                        term = f"{coeff} * {blade}"
                else:
                    term = f"({coeff}) * {blade}"
            if not chunks:
                chunks.append(term)
            elif term.startswith("-"):
                chunks.append(f"- {term[1:]}")
            else:
                chunks.append(f"+ {term}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class MultivectorField(_GradedTensor):
    """A polynomial-coefficient multivector field (grade 0 = a function)."""

    _basis_format = "d/d{}"

    @classmethod
    def zero(cls, context: VarContext, grade: int = 0) -> "MultivectorField":
        return cls(context, grade)

    @classmethod
    def from_scalar(cls, value: Polynomial) -> "MultivectorField":
        return cls(value.context, 0, {(): value})

    @classmethod
    def basis_field(cls, context: VarContext, var: "int | str") -> "MultivectorField":
        i = var if isinstance(var, int) else context.index(var)
        return cls(context, 1, {(i,): Polynomial.constant(context, 1)})

    def scalar_part(self) -> Polynomial:
        if self.grade != 0:
            raise GradeError("scalar_part requires grade 0")
        return self.coefficient(())

    def apply_to(self, f: Polynomial) -> Polynomial:
        """Derivation action of a grade-1 field on a function."""
        if self.grade != 1:
            raise GradeError("apply_to requires a grade-1 field")
        if f.context != self.context:
            raise ContextMismatch("function context does not match the field context")
        out = Polynomial.zero(self.context)
        for (i,), coeff in self._components.items():
            out = out + coeff * f.partial(i)
        return out


class DifferentialForm(_GradedTensor):
    """A polynomial-coefficient differential form (grade 0 = a function)."""

    _basis_format = "d{}"

    @classmethod
    def zero(cls, context: VarContext, grade: int = 0) -> "DifferentialForm":
        return cls(context, grade)

    @classmethod
    def from_scalar(cls, value: Polynomial) -> "DifferentialForm":
        return cls(value.context, 0, {(): value})

    @classmethod
    def basis_covector(cls, context: VarContext, var: "int | str") -> "DifferentialForm":
        i = var if isinstance(var, int) else context.index(var)
        return cls(context, 1, {(i,): Polynomial.constant(context, 1)})


def wedge(a: _GradedTensor, b: _GradedTensor) -> _GradedTensor:
    return a.wedge(b)


def differential(f: Polynomial) -> DifferentialForm:
    """The exact 1-form df of a function."""
    components = {}
    for i in range(len(f.context)):
        df = f.partial(i)
        if not df.is_zero:
            components[(i,)] = df
    return DifferentialForm(f.context, 1, components)


def exterior_derivative(form: DifferentialForm) -> DifferentialForm:
    """d on forms; satisfies d(d(form)) = 0."""
    if not isinstance(form, DifferentialForm):
        raise TypeError("exterior_derivative acts on differential forms")
    context = form.context
    components: dict[IndexTuple, Polynomial] = {}
    for indices, coeff in form._components.items():
        for j in range(len(context)):
            dj = coeff.partial(j)
            if dj.is_zero:
                continue
            merged, sign = merge_sign((j,), indices)
            if sign != 0:
                _accumulate(components, merged, dj * sign)
    return DifferentialForm(context, form.grade + 1, components)


def _contract_slot(
    coeffs: Mapping[int, Polynomial], components: Mapping[IndexTuple, Polynomial]
) -> dict[IndexTuple, Polynomial]:
    """First-slot contraction of sum_j coeffs[j] * (dx_j or d/dx_j): index j at
    0-based position m of a blade gives (-1)^m coeffs[j] * coeff on the rest."""
    out: dict[IndexTuple, Polynomial] = {}
    for indices, coeff in components.items():
        for pos, j in enumerate(indices):
            a = coeffs.get(j)
            if a is None:
                continue
            sign = -1 if pos % 2 else 1
            _accumulate(out, indices[:pos] + indices[pos + 1 :], a * coeff * sign)
    return out


def _contract(field: MultivectorField, form: DifferentialForm) -> DifferentialForm:
    """Interior product, total: grade deficits give the zero 0-form."""
    if field.context != form.context:
        raise ContextMismatch("tensor contexts differ")
    context = field.context
    if form.grade < field.grade:
        return DifferentialForm.zero(context, 0)
    if field.grade == 0:
        return form.scale(field.scalar_part())
    one = Polynomial.constant(context, 1)
    total: dict[IndexTuple, Polynomial] = {}
    for indices, coeff in field._components.items():
        work = form._components
        # Innermost factor first: i_{X_1 ^ ... ^ X_p} = i_{X_1} o ... o i_{X_p}.
        for j in reversed(indices):
            work = _contract_slot({j: one}, work)
        for rest, value in work.items():
            _accumulate(total, rest, coeff * value)
    return DifferentialForm(context, form.grade - field.grade, total)


def interior_product(field: MultivectorField, form: DifferentialForm) -> DifferentialForm:
    """i_X on forms, contracting the innermost factor of X first."""
    if form.grade < field.grade:
        raise GradeError(f"cannot contract a grade-{field.grade} field into a grade-{form.grade} form")
    return _contract(field, form)


def lie_derivative(field: MultivectorField, form: DifferentialForm) -> DifferentialForm:
    """Generalized Lie derivative L_X = i_X o d - (-1)^|X| d o i_X."""
    p = field.grade
    if form.grade + 1 < p:
        raise GradeError(f"form grade {form.grade} too small for a grade-{p} Lie derivative")
    first = _contract(field, exterior_derivative(form))
    second = exterior_derivative(_contract(field, form))
    sign = -1 if p % 2 else 1
    return first - second.scale(sign)


def contract_covector(alpha: DifferentialForm, field: MultivectorField) -> MultivectorField:
    """First-slot contraction of a 1-form into a multivector field."""
    if alpha.grade != 1:
        raise GradeError("contract_covector requires a grade-1 form")
    if alpha.context != field.context:
        raise ContextMismatch("tensor contexts differ")
    context = field.context
    if field.grade == 0:
        raise GradeError("cannot contract a covector into a grade-0 field")
    coeffs = {i: c for (i,), c in alpha._components.items()}
    return MultivectorField(context, field.grade - 1, _contract_slot(coeffs, field._components))


def pairing(alpha: DifferentialForm, field: MultivectorField) -> Polynomial:
    """The function <alpha, X> for a 1-form and a grade-1 field."""
    if alpha.grade != 1 or field.grade != 1:
        raise GradeError("pairing requires grade-1 arguments")
    if alpha.context != field.context:
        raise ContextMismatch("tensor contexts differ")
    out = Polynomial.zero(field.context)
    for (i,), coeff in field._components.items():
        a = alpha._components.get((i,))
        if a is not None:
            out = out + a * coeff
    return out


def schouten_bracket(u: MultivectorField, v: MultivectorField) -> MultivectorField:
    """The Schouten bracket of multivector fields; grade |U| + |V| - 1.

    For grade-1 arguments this is the usual Lie bracket of vector fields;
    for a grade-0 argument f it is the derivative action ([X, f] = X(f),
    extended as a graded derivation).
    """
    if not isinstance(u, MultivectorField) or not isinstance(v, MultivectorField):
        raise TypeError("schouten_bracket acts on multivector fields")
    if u.context != v.context:
        raise ContextMismatch("tensor contexts differ")
    context = u.context
    p, q = u.grade, v.grade
    if p == 0 and q == 0:
        return MultivectorField.zero(context, 0)
    # [U, f] = sum_a (-1)^(a-1) X_a(f) X_1 ^ ...(drop a)... ^ X_m is the
    # first-slot contraction of df; graded symmetry gives [f, V] = [V, f].
    if q == 0:
        return contract_covector(differential(v.scalar_part()), u)
    if p == 0:
        return contract_covector(differential(u.scalar_part()), v)

    one = Polynomial.constant(context, 1)
    prefactor = 1 if (p + 1) % 2 == 0 else -1
    out: dict[IndexTuple, Polynomial] = {}
    for iu, cu in u._components.items():
        for iv, cv in v._components.items():
            # Decompose cu * d_I as (cu d_{i_1}) ^ d_{i_2} ^ ... and likewise
            # for v; only pairs touching a coefficient-bearing factor can
            # have a nonzero bracket.
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
                    bracket_terms = []
                    t1 = ca * cb.partial(ka)
                    if not t1.is_zero:
                        bracket_terms.append((t1, kb))
                    t2 = cb * ca.partial(kb)
                    if not t2.is_zero:
                        bracket_terms.append((-t2, ka))
                    if not bracket_terms:
                        continue
                    leftover = (one if a == 0 else cu) * (one if b == 0 else cv)
                    pair_sign = -1 if (a + b) % 2 else 1  # (-1)^(i+j), 1-based
                    for coeff, k in bracket_terms:
                        merged, sign = merge_sign((k,), rest)
                        if sign != 0:
                            _accumulate(out, merged, coeff * leftover * (prefactor * pair_sign * rest_sign * sign))
    return MultivectorField(context, p + q - 1, out)
