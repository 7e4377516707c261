import pytest

from lieforge import Subspace, builtin, center, check_jacobi
from lieforge.catalog import BUILTINS


def test_known_names():
    assert sorted(BUILTINS) == ["d4half", "g0", "g5", "h3"]
    with pytest.raises(KeyError):
        builtin("nope")


def test_all_builtins_satisfy_jacobi():
    for b in BUILTINS.values():
        assert check_jacobi(b.algebra).overall


def test_h3_canonical_structure():
    b = builtin("h3")
    s = b.sasakian()
    assert s.reeb == b.algebra.basis_vector(2)


def test_d4half_canonical_structures():
    b = builtin("d4half")
    k = b.kahler()
    f = b.frobenius()
    assert f.principal == b.algebra.basis_vector(3)
    assert k.omega.coeff((0, 1)) == 1 and k.omega.coeff((2, 3)) == -1
    assert b.named_map("E")[0][1] == 1
    with pytest.raises(KeyError):
        b.named_map("F")


def test_g0_center_trivial():
    assert center(builtin("g0").algebra).dim == 0
    builtin("g0").sasakian()


def test_g5_center_contains_z():
    g5 = builtin("g5")
    z = center(g5.algebra)
    assert z == Subspace.from_vectors(5, (g5.algebra.basis_vector(4),))
    g5.sasakian()


def test_missing_structures_raise():
    from lieforge.report import PreconditionError

    with pytest.raises(PreconditionError):
        builtin("h3").kahler()
    with pytest.raises(PreconditionError):
        builtin("g5").frobenius()


def test_builtins_are_the_constructions_of_the_low_dimensional_examples():
    # the catalog is written out by hand, as building it at import would load theorems in every
    # command; each built-in equals what the construction that defines it returns
    from lieforge import frobenius_kahler_to_sasakian, kahler_to_sasakian_central, sasakian_to_frobenius_kahler
    from lieforge.linalg import diagonal

    h3, d4, g0, g5 = (builtin(name) for name in ("h3", "d4half", "g0", "g5"))
    ext, report, frob, kahler = sasakian_to_frobenius_kahler(h3.algebra, h3.sasakian(), diagonal(["1/2", "1/2", 1]))
    assert report.overall and ext.algebra == d4.algebra
    assert (kahler.j, kahler.omega) == d4.kahler_data and frob.phi == d4.frobenius_form
    ext, report, sasakian = kahler_to_sasakian_central(d4.algebra, d4.kahler())
    assert report.overall and ext.algebra == g5.algebra
    assert (sasakian.reeb, sasakian.alpha, sasakian.phi) == g5.sasakian_data
    ext, report, sasakian = frobenius_kahler_to_sasakian(d4.algebra, d4.frobenius(), d4.kahler(), d4.named_map("E"))
    assert report.overall and ext.algebra == g0.algebra
    assert (sasakian.reeb, sasakian.alpha, sasakian.phi) == g0.sasakian_data
