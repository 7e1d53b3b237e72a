"""One contract for every sparse blade sum: multivector fields, differential
forms, Lie chains and module-valued cochains share zero, addition, scaling,
equality, hashing and their errors."""
from fractions import Fraction

import pytest

from leafconn.liealg import ChainElement, CochainCE, LieModuleFD, sl2
from leafconn.poly import ContextMismatch, Polynomial, VarContext
from leafconn.tensors import DifferentialForm, GradeError, MultivectorField

import support

UVW = VarContext(["u", "v", "w"])
G, G_AGAIN = sl2(), sl2()  # separately built, identical algebras
M, M_AGAIN = LieModuleFD.trivial(G, 2), LieModuleFD.trivial(G, 2)


class Kind:
    """How to build one kind: its spaces (the first is the home space), its
    coefficient from an int, and its error types."""

    def __init__(self, cls, spaces, value, grade_error, space_error):
        self.cls = cls
        self.spaces = spaces
        self.value = value
        self.grade_error = grade_error
        self.space_error = space_error

    def make(self, grade, terms=(), space=None):
        space = self.spaces[0] if space is None else space
        return self.cls(*space, grade, {b: self.value(space, c) for b, c in dict(terms).items()})

    def samples(self):
        """Two nonzero elements, of grades 1 and 2."""
        return self.make(1, {(0,): 2, (2,): -1}), self.make(2, {(0, 1): 3, (1, 2): Fraction(1, 2)})


def _constant(space, c):
    return Polynomial.constant(space[0], c)


def _module_vector(space, c):
    return (Fraction(c), Fraction(-c))


TENSOR_SPACES = [(support.XYZ,), (UVW,)]
COCHAIN_SPACES = [(G, M), (G_AGAIN, LieModuleFD.trivial(G_AGAIN, 2)), (G, M_AGAIN)]
KINDS = {
    "MultivectorField": Kind(MultivectorField, TENSOR_SPACES, _constant, GradeError, ContextMismatch),
    "DifferentialForm": Kind(DifferentialForm, TENSOR_SPACES, _constant, GradeError, ContextMismatch),
    "ChainElement": Kind(ChainElement, [(G,), (G_AGAIN,)], lambda s, c: Fraction(c), ValueError, ValueError),
    "CochainCE": Kind(CochainCE, COCHAIN_SPACES, _module_vector, ValueError, ValueError),
}

kinds = pytest.mark.parametrize("kind", KINDS.values(), ids=KINDS.keys())


@kinds
def test_zero_of_every_grade_is_one_zero(kind):
    zeros = [kind.make(grade) for grade in range(4)]
    for a in kind.samples():
        for z in zeros:
            assert z.is_zero
            assert all(z == other for other in zeros)
            assert z + a == a and a + z == a
            assert (z + z).is_zero


@kinds
def test_self_difference_and_zero_scale_vanish(kind):
    for a in kind.samples():
        assert not a.is_zero
        assert (a - a).is_zero
        assert a.scale(0).is_zero
        assert a.scale(2) == a + a
        assert -a == a.scale(-1)


@kinds
def test_inexact_factor_is_a_type_error(kind):
    for a in (*kind.samples(), kind.make(1)):
        with pytest.raises(TypeError):
            a.scale(0.5)


@kinds
def test_grades_must_agree(kind):
    one, two = kind.samples()
    with pytest.raises(kind.grade_error):
        one + two
    with pytest.raises(kind.grade_error):
        two - one
    with pytest.raises(kind.grade_error):
        kind.make(-1)


@kinds
def test_spaces_must_agree(kind):
    one, _ = kind.samples()
    for space in kind.spaces[1:]:
        other = kind.make(1, {(0,): 2, (2,): -1}, space)
        with pytest.raises(kind.space_error):
            one + other
        with pytest.raises(kind.space_error):
            one + kind.make(1, (), space)
        assert one != other
        assert kind.make(1) != kind.make(1, (), space)
        if hasattr(one, "wedge"):
            with pytest.raises(kind.space_error):
                one.wedge(other)


def test_chains_over_identical_algebras_differ():
    assert G is not G_AGAIN and G.labels == G_AGAIN.labels
    assert ChainElement.basis(G, [0]) != ChainElement.basis(G_AGAIN, [0])
    assert ChainElement(G, 1) != ChainElement(G_AGAIN, 1)


@kinds
def test_other_kinds_are_type_errors_and_unequal(kind):
    one, _ = kind.samples()
    name = kind.cls.__name__
    with pytest.raises(TypeError, match=f"^cannot combine {name} with int$"):
        one + 1
    with pytest.raises(TypeError, match=f"^cannot combine {name} with int$"):
        one - 1
    if hasattr(one, "wedge"):
        with pytest.raises(TypeError, match=f"^cannot combine {name} with int$"):
            one.wedge(1)
    assert one != 1 and kind.make(0) != 0
    for other_kind in KINDS.values():
        if other_kind is kind:
            continue
        other, _ = other_kind.samples()
        with pytest.raises(TypeError, match=f"^cannot combine {name} with {other_kind.cls.__name__}$"):
            kind.make(1) + other
        assert one != other and kind.make(1) != other_kind.make(1)


@kinds
def test_hash_rules(kind):
    one, _ = kind.samples()
    if kind.cls is CochainCE:
        # module-vector values cannot be multiplied: no wedge, and no hash
        assert not hasattr(one, "wedge")
        with pytest.raises(TypeError):
            hash(one)
        return
    assert hash(one) == hash(kind.samples()[0])
    assert len({kind.make(grade) for grade in range(4)}) == 1
