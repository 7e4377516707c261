"""The value types are ``report.Record`` subclasses that behave as the frozen
dataclasses they replace: for each, a reference ``@dataclass(frozen=True)``
with the same fields, built here, prints the same repr and hashes the same,
and equality, construction and immutability match it."""

import copy
from dataclasses import field, make_dataclass
from fractions import Fraction

import pytest

from lieforge import (
    Builtin,
    CheckItem,
    CheckReport,
    Commute,
    ContactStructure,
    DoubleExtensionParams,
    ExtensionResult,
    FormEigen,
    FrobeniusStructure,
    KahlerStructure,
    KForm,
    Leibniz,
    LieAlgebra,
    SasakianStructure,
    Sends,
    Subspace,
    builtin,
    center,
    central_extension,
    check_contact,
    check_sasakian,
    derivation_extension,
    sasakian_double_extension,
)
from lieforge.cli import _SOURCES, _Source
from lieforge.linalg import diagonal, solve_affine
from lieforge.report import DimensionMismatch, fail, ok

H3, D4, G5 = builtin("h3"), builtin("d4half"), builtin("g5")

# The fields of each dataclass the record replaces, in order, with the defaults it had.
FIELDS = {
    LieAlgebra: ("dim", "brackets", "labels"),
    Subspace: ("ambient_dim", "rows"),
    Builtin: ("name", "algebra", ("sasakian_data", None), ("kahler_data", None), ("frobenius_form", None), ("maps", ())),
    _Source: ("flags", "builtin", "check"),
    Leibniz: (),
    FormEigen: ("phi", "factor"),
    Commute: ("a", ("on", None)),
    Sends: ("v", "w"),
    ExtensionResult: ("algebra", "parent_dim", ("central_index", None), ("derivation_index", None)),
    KForm: ("dim", "degree", "coeffs"),
    CheckItem: ("name", "passed", ("witness", None)),
    CheckReport: ("items", ("notes", ())),
    ContactStructure: ("alpha", "reeb"),
    FrobeniusStructure: ("phi", "principal"),
    KahlerStructure: ("j", "omega", "metric"),
    SasakianStructure: ("reeb", "alpha", "phi", "metric"),
    DoubleExtensionParams: ("a", "b", "c", "u"),
}


def reference(cls):
    """The frozen dataclass with the record's name and fields."""
    spec = [f if isinstance(f, str) else (f[0], object, field(default=f[1])) for f in FIELDS[cls]]
    return make_dataclass(cls.__name__, spec, frozen=True)


def names(cls):
    return tuple(f if isinstance(f, str) else f[0] for f in FIELDS[cls])


def samples():
    """Instances of every record, most of them as the library returns them."""
    s, alpha = H3.sasakian(), H3.sasakian_data[1]
    report = check_sasakian(H3.algebra, *H3.sasakian_data)[0]  # with notes
    params = sasakian_double_extension(H3.algebra, s, KForm.zero(3, 2), diagonal([0, 0, 0, -1]))[3]
    return [
        H3.algebra,
        D4.algebra,
        center(G5.algebra),
        Subspace(3, ()),
        H3,
        D4,
        _SOURCES["kahler"],
        Leibniz(),
        FormEigen(alpha, Fraction(1)),
        Commute(s.phi),
        Commute(s.phi, center(H3.algebra)),
        Sends(s.reeb, s.reeb),
        central_extension(D4.algebra, D4.kahler_data[1]),
        derivation_extension(H3.algebra, diagonal(["1/2", "1/2", 1])),
        alpha,
        KForm.zero(3, 2),
        ok("a"),
        fail("b", "witness"),
        report,
        CheckReport(report.items),
        check_contact(H3.algebra, alpha)[1],
        D4.frobenius(),
        D4.kahler(),
        s,
        params,
    ]


SAMPLES = samples()


def test_every_record_is_sampled():
    assert {type(x) for x in SAMPLES} == set(FIELDS)
    assert all(cls._fields == names(cls) for cls in FIELDS)


@pytest.mark.parametrize("x", SAMPLES, ids=lambda x: type(x).__name__)
def test_record_matches_the_frozen_dataclass_it_replaces(x):
    cls = type(x)
    values = tuple(getattr(x, f) for f in cls._fields)
    ref = reference(cls)(*values)
    assert repr(x) == repr(ref)
    assert hash(x) == hash(ref)
    # built again, positionally or by name, it is equal, hashes equal and prints the same
    for again in (cls(*values), cls(**dict(zip(cls._fields, values))), copy.copy(x), copy.deepcopy(x)):
        assert again == x and not again != x
        assert hash(again) == hash(x) and repr(again) == repr(x)
    with pytest.raises(TypeError):
        cls(*values, None)
    # equality is within one class only: any other class gets NotImplemented, as from the dataclass
    assert x.__eq__(ref) is NotImplemented and ref.__eq__(x) is NotImplemented and x != ref
    other = next(y for y in SAMPLES if type(y) is not cls)
    assert x.__eq__(other) is NotImplemented and x != other
    for name in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, f) for f in cls._fields) == values


def test_defaults_match_the_dataclass():
    s = H3.sasakian()
    for cls, short in [(Commute, (s.phi,)), (CheckItem, ("a", True)), (CheckReport, ((ok("a"),),))]:
        assert repr(cls(*short)) == repr(reference(cls)(*short))
    assert repr(Builtin("x", H3.algebra)) == repr(reference(Builtin)("x", H3.algebra))
    assert ExtensionResult(H3.algebra, 3) == ExtensionResult(H3.algebra, 3, None, None)


@pytest.mark.parametrize(
    "structure, g",
    [(D4.frobenius(), D4.algebra), (D4.kahler(), D4.algebra), (H3.sasakian(), H3.algebra)],
    ids=["frobenius", "kahler", "sasakian"],
)
def test_a_bound_structure_equals_and_prints_like_its_hand_built_copy(structure, g):
    copy_ = type(structure)(*(getattr(structure, f) for f in structure._fields))
    assert structure.algebra is g and copy_.algebra is None
    assert structure == copy_ and hash(structure) == hash(copy_) and repr(structure) == repr(copy_)
    assert "algebra" not in repr(structure)
    with pytest.raises(AttributeError):
        structure.algebra = None


def test_cached_values_live_beside_the_fields():
    g = LieAlgebra(3, {(0, 1): {2: 1}})
    fresh = LieAlgebra(3, {(0, 1): {2: 1}})
    assert g._integer_terms == (1, (((), ((2, 1),), ()), (((2, -1),), (), ()), ((), (), ())), 1)
    assert "_integer_terms" in vars(g)
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    form = KForm.from_coeffs(3, 2, {(0, 1): 3, (1, 2): "1/2"})
    assert form.coeff((0, 1)) == 3 and form.coeff((0, 2)) == 0 and form.coeff((1, 2)) == Fraction(1, 2)
    assert form._ints == (((0, 6, 0), (-6, 0, 1), (0, -1, 0)), 2)
    assert "_table" in vars(form) and "_ints" in vars(form)
    assert form == KForm(3, 2, form.coeffs) and repr(form) == repr(KForm(3, 2, form.coeffs))
    assert hash(form) == hash(KForm(3, 2, form.coeffs))
    alpha = KForm(3, 1, (((0,), 1), ((2,), Fraction(-2, 3))))
    assert alpha._ints == ((3, 0, -2), 3) and "_ints" in vars(alpha)
    assert alpha == KForm.one_form(3, [1, 0, "-2/3"]) and repr(alpha) == repr(KForm(3, 1, alpha.coeffs))


# case -> (call, the exception it raises, its message): the argument checks of the records and kernels
REFUSED_ARGUMENTS = {
    "kform negative degree": (lambda: KForm(3, -1, ()), ValueError, "degree must be non-negative"),
    "kform tuple length": (
        lambda: KForm(3, 2, (((0,), Fraction(1)),)),
        ValueError,
        "coefficient tuple (0,) has wrong length",
    ),
    "failed item without witness": (lambda: CheckItem("x", False), ValueError, "failed item 'x' needs a witness"),
    "record field without a value": (
        lambda: ExtensionResult(H3.algebra),  # parent_dim has no default
        TypeError,
        "ExtensionResult takes the fields (algebra, parent_dim, central_index, derivation_index)",
    ),
    "report item not found": (lambda: CheckReport((ok("x"),)).item("y"), KeyError, "'y'"),
    "solve_affine rhs count": (
        lambda: solve_affine([(1, 0)], [1, 2]),
        DimensionMismatch,
        "2 right-hand sides for 1 equations",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED_ARGUMENTS))
def test_refused_argument_raises_its_message(case):
    call, error, message = REFUSED_ARGUMENTS[case]
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
