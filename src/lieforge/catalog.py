"""Built-in low-dimensional algebras with their canonical structures.

h3      Heisenberg algebra, [e1,e2] = e3, Sasakian.
d4half  h3 extended by diag(1/2, 1/2, 1), Frobenius-Kahler.
g0      d4half extended by the rotation E, Sasakian with trivial center.
g5      central extension of d4half by its symplectic form, Sasakian
        with one-dimensional center.

``BUILTINS`` maps each name to its entry, built at import: an algebra is
its short bracket table. A structure is checked when it is read
(``Builtin.sasakian`` and the like), not at import.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import LieAlgebra
from .forms import KForm
from .linalg import Matrix, matrix
from .report import PreconditionError, Record, require
from .structures import (
    FrobeniusStructure,
    KahlerStructure,
    SasakianStructure,
    check_frobenius,
    check_kahler,
    check_sasakian,
)

H = Fraction(1, 2)


class Builtin(Record):
    """A named algebra and its structure data: sasakian_data is (reeb, alpha, phi), kahler_data (j, omega)."""

    _fields = ("name", "algebra", "sasakian_data", "kahler_data", "frobenius_form", "maps")
    _defaults = {"sasakian_data": None, "kahler_data": None, "frobenius_form": None, "maps": ()}

    def sasakian(self) -> SasakianStructure:
        return self._checked("Sasakian", check_sasakian, self.sasakian_data)

    def kahler(self) -> KahlerStructure:
        return self._checked("Kahler", check_kahler, self.kahler_data)

    def frobenius(self) -> FrobeniusStructure:
        return self._checked("Frobenius", check_frobenius, self.frobenius_form and (self.frobenius_form,))

    def _checked(self, kind: str, check, data: tuple | None):
        """The structure ``check(algebra, *data)`` returns; refuses missing data or a failed check."""
        if data is None:
            raise PreconditionError(f"builtin {self.name} carries no {kind} data")
        report, structure = check(self.algebra, *data)
        require(f"builtin {self.name} fails its {kind} check", report)
        return structure

    def named_map(self, name: str) -> Matrix:
        for label, m in self.maps:
            if label == name:
                return m
        raise KeyError(f"builtin {self.name} has no map named {name!r}")


def _h3() -> Builtin:
    g = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})
    phi = matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    return Builtin(
        "h3",
        g,
        sasakian_data=(g.basis_vector(2), KForm.basis_one_form(3, 2), phi),
    )


def _d4half() -> Builtin:
    g = LieAlgebra.from_brackets(
        4,
        {
            (0, 1): {2: 1},
            (0, 3): {0: -H},
            (1, 3): {1: -H},
            (2, 3): {2: -1},
        },
    )
    j = matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    omega = KForm.two_form(4, {(0, 1): 1, (2, 3): -1})
    e_map = matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    return Builtin(
        "d4half",
        g,
        kahler_data=(j, omega),
        frobenius_form=KForm.basis_one_form(4, 2),
        maps=(("E", e_map),),
    )


def _g0() -> Builtin:
    g = LieAlgebra.from_brackets(
        5,
        {
            (0, 1): {2: 1},
            (0, 3): {0: -H},
            (1, 3): {1: -H},
            (2, 3): {2: -1},
            (0, 4): {1: 1},
            (1, 4): {0: -1},
        },
    )
    phi = matrix(
        [
            [0, -1, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, -1, 0, 0],
            [0, 0, 0, -1, 0],
        ]
    )
    alpha = KForm.one_form(5, [0, 0, 1, 0, 1])
    return Builtin("g0", g, sasakian_data=(g.basis_vector(4), alpha, phi))


def _g5() -> Builtin:
    g = LieAlgebra.from_brackets(
        5,
        {
            (0, 1): {2: 1, 4: 1},
            (0, 3): {0: -H},
            (1, 3): {1: -H},
            (2, 3): {2: -1, 4: -1},
        },
    )
    phi = matrix(
        [
            [0, -1, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, -1, 0, 0],
            [0, 0, 0, 0, 0],
        ]
    )
    return Builtin("g5", g, sasakian_data=(g.basis_vector(4), KForm.basis_one_form(5, 4), phi))


BUILTINS: dict[str, Builtin] = {b.name: b for b in (_h3(), _d4half(), _g0(), _g5())}


def builtin(name: str) -> Builtin:
    try:
        return BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown builtin {name!r}; valid names: {', '.join(sorted(BUILTINS))}")
