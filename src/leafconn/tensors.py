"""Multivector fields, differential forms, and the graded calculus on them.

Components are stored sparsely on strictly increasing index tuples with
polynomial coefficients, so every object has one canonical representation
(``_blade`` is the one check of such a tuple, here and in ``liealg``).
A blade (i_1, ..., i_p) is read as the product xi_{i_1} ... xi_{i_p} of odd
variables (xi_j = d/dx_j for fields, dx_j for forms).  The calculus stands
on two derivative kernels and one product loop: ``_odd_partials`` (d/dxi_j
from the left, which is the first-slot contraction), ``_even_partials``
(d/dx_j of the coefficients) and ``_wedge_terms``.

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
  with ``[X, f] = X(f)`` in grade 0, extended by the Leibniz rule.  In the
  odd variables this is the odd Poisson bracket
  ``[U, V] = sum_j dU/dxi_j ^ dV/dx_j + (-1)^|U| dU/dx_j ^ dV/dxi_j``,
  which is how it is computed.

Under these choices the graded symmetry ``[U,V] = (-1)^(|U||V|) [V,U]``,
the Leibniz rule ``[U, V^W] = [U,V]^W + (-1)^((|U|+1)|V|) V^[U,W]``, the
graded Jacobi identity, and the mixed commutator rule
``L_X o i_Y - (-1)^((p-1)q) i_Y o L_X = (-1)^(p+1) i_[X,Y]`` for X of
grade p and Y of grade q all hold exactly; at p = 1 the last one is the
classical ``[L_X, i_Y] = i_[X,Y]``.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

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


def _blade(idx: Sequence[int], grade: int, dim: int) -> IndexTuple:
    """``idx`` as a tuple, after checking that it is an increasing blade of
    ``grade`` indices below ``dim``."""
    idx = tuple(idx)
    if len(idx) != grade or any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"bad blade {idx!r} for grade {grade}")
    if any(not 0 <= i < dim for i in idx):
        raise ValueError(f"blade {idx!r} out of range")
    return idx


def _accumulate(out: dict[IndexTuple, Scalar], key: IndexTuple, value: Scalar) -> None:
    """Add ``value`` into ``out[key]``; zero sums stay for the constructor to drop."""
    previous = out.get(key)
    out[key] = value if previous is None else previous + value


def _wedge_terms(out: dict[IndexTuple, Scalar], left: Mapping, right: Mapping, sign: int) -> None:
    """Add ``sign * (left ^ right)`` into ``out``: the one exterior-product
    loop, for ``Polynomial`` and ``Fraction`` coefficients alike."""
    for lo, c1 in left.items():
        for ro, c2 in right.items():
            merged, s = merge_sign(lo, ro)
            if s:
                _accumulate(out, merged, c1 * c2 if s == sign else -(c1 * c2))


def _signed_sum(terms: list[str]) -> str:
    """Printed terms joined as ``a - b + c``, or ``0`` when there are none."""
    chunks: list[str] = []
    for term in terms:
        if not chunks:
            chunks.append(term)
        elif term.startswith("-"):
            chunks.append(f"- {term[1:]}")
        else:
            chunks.append(f"+ {term}")
    return " ".join(chunks) or "0"


def _odd_partials(components: Mapping[IndexTuple, Polynomial]) -> dict[int, dict[IndexTuple, Polynomial]]:
    """The derivatives d/dxi_j from the left in the odd variables: index j at
    0-based position m of a blade gives (-1)^m coeff on the rest.  This is
    the first-slot contraction with dx_j (or d/dx_j)."""
    out: dict[int, dict[IndexTuple, Polynomial]] = {}
    for indices, coeff in components.items():
        for pos, j in enumerate(indices):
            out.setdefault(j, {})[indices[:pos] + indices[pos + 1 :]] = -coeff if pos % 2 else coeff
    return out


def _even_partials(components: Mapping[IndexTuple, Polynomial]) -> dict[int, dict[IndexTuple, Polynomial]]:
    """The derivatives d/dx_j of the coefficients, nonzero entries only."""
    out: dict[int, dict[IndexTuple, Polynomial]] = {}
    for indices, coeff in components.items():
        for j in range(len(coeff.context)):
            dj = coeff.partial(j)
            if not dj.is_zero:
                out.setdefault(j, {})[indices] = dj
    return out


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
            indices = _blade(indices, grade, len(context))
            if coeff.context != context:
                raise ContextMismatch("component context does not match the tensor context")
            if not coeff.is_zero:
                clean[indices] = coeff
        self._components = clean

    @classmethod
    def zero(cls, context: VarContext, grade: int = 0) -> "_GradedTensor":
        return cls(context, grade)

    @classmethod
    def from_scalar(cls, value: Polynomial) -> "_GradedTensor":
        return cls(value.context, 0, {(): value})

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
        components: dict[IndexTuple, Polynomial] = {}
        _wedge_terms(components, self._components, other._components, 1)
        return type(self)(self.context, self.grade + other.grade, components)

    def __xor__(self, other: "_GradedTensor") -> "_GradedTensor":
        return self.wedge(other)

    # -- printing ----------------------------------------------------------

    def _blade_str(self, indices: IndexTuple) -> str:
        return " ^ ".join(self._basis_format.format(self.context.names[i]) for i in indices)

    def __str__(self) -> str:
        printed: list[str] = []
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
            printed.append(term)
        return _signed_sum(printed)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class MultivectorField(_GradedTensor):
    """A polynomial-coefficient multivector field (grade 0 = a function)."""

    _basis_format = "d/d{}"

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
    def basis_covector(cls, context: VarContext, var: "int | str") -> "DifferentialForm":
        i = var if isinstance(var, int) else context.index(var)
        return cls(context, 1, {(i,): Polynomial.constant(context, 1)})


def wedge(a: _GradedTensor, b: _GradedTensor) -> _GradedTensor:
    return a.wedge(b)


def differential(f: Polynomial) -> DifferentialForm:
    """The exact 1-form df of a function."""
    return exterior_derivative(DifferentialForm.from_scalar(f))


def exterior_derivative(form: DifferentialForm) -> DifferentialForm:
    """d = sum_j dx_j ^ d/dx_j on forms; satisfies d(d(form)) = 0."""
    if not isinstance(form, DifferentialForm):
        raise TypeError("exterior_derivative acts on differential forms")
    components: dict[IndexTuple, Polynomial] = {}
    for j, partials in _even_partials(form._components).items():
        _wedge_terms(components, {(j,): 1}, partials, 1)
    return DifferentialForm(form.context, form.grade + 1, components)


def _contract(field: MultivectorField, form: DifferentialForm) -> DifferentialForm:
    """Interior product, total: grade deficits give the zero 0-form."""
    if field.context != form.context:
        raise ContextMismatch("tensor contexts differ")
    if form.grade < field.grade:
        return DifferentialForm.zero(field.context, 0)
    total: dict[IndexTuple, Polynomial] = {}
    for indices, coeff in field._components.items():
        work = form._components
        # Innermost factor first: i_{X_1 ^ ... ^ X_p} = i_{X_1} o ... o i_{X_p}.
        for j in reversed(indices):
            work = _odd_partials(work).get(j, {})
        for rest, value in work.items():
            _accumulate(total, rest, coeff * value)
    return DifferentialForm(field.context, form.grade - field.grade, total)


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
    """First-slot contraction sum_j a_j d/dxi_j of a 1-form into a multivector field."""
    if alpha.grade != 1:
        raise GradeError("contract_covector requires a grade-1 form")
    if alpha.context != field.context:
        raise ContextMismatch("tensor contexts differ")
    if field.grade == 0:
        raise GradeError("cannot contract a covector into a grade-0 field")
    odd = _odd_partials(field._components)
    out: dict[IndexTuple, Polynomial] = {}
    for (j,), a in alpha._components.items():
        for rest, c in odd.get(j, {}).items():
            _accumulate(out, rest, a * c)
    return MultivectorField(field.context, field.grade - 1, out)


def pairing(alpha: DifferentialForm, field: MultivectorField) -> Polynomial:
    """The function <alpha, X> for a 1-form and a grade-1 field."""
    if alpha.grade != 1 or field.grade != 1:
        raise GradeError("pairing requires grade-1 arguments")
    return _contract(field, alpha).coefficient(())


def schouten_bracket(u: MultivectorField, v: MultivectorField) -> MultivectorField:
    """The Schouten bracket of multivector fields; grade max(|U| + |V| - 1, 0).

    ``sum_j dU/dxi_j ^ dV/dx_j + (-1)^|U| dU/dx_j ^ dV/dxi_j``: for grade-1
    arguments the usual Lie bracket of vector fields, and for a grade-0
    argument f the derivative action [X, f] = [f, X] = X(f).
    """
    if not isinstance(u, MultivectorField) or not isinstance(v, MultivectorField):
        raise TypeError("schouten_bracket acts on multivector fields")
    if u.context != v.context:
        raise ContextMismatch("tensor contexts differ")
    out: dict[IndexTuple, Polynomial] = {}
    for left, right, sign in (
        (_odd_partials(u._components), _even_partials(v._components), 1),
        (_even_partials(u._components), _odd_partials(v._components), -1 if u.grade % 2 else 1),
    ):
        for j, du in left.items():
            dv = right.get(j)
            if dv:
                _wedge_terms(out, du, dv, sign)
    return MultivectorField(u.context, max(u.grade + v.grade - 1, 0), out)
