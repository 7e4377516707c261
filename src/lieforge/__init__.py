"""Exact-arithmetic Lie algebra extensions and geometric structure checks.

``import lieforge`` loads no submodule. Each public name below is looked up
in its home module on first use (PEP 562 module ``__getattr__``), which
imports that module and what it needs, and every ``lieforge.<submodule>``
resolves the same way. A name is read from its home module on every access,
so ``lieforge.check_jacobi`` is always ``lieforge.algebra.check_jacobi``.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by home module.
_EXPORTS = {
    "algebra": "LieAlgebra Subspace center check_jacobi",
    "catalog": "BUILTINS Builtin builtin",
    "derivations": "Commute FormEigen Leibniz Sends derivation_space is_derivation",
    "extensions": "ExtensionResult central_extension derivation_extension double_extension is_cocycle "
    "lift_one_form reversed_double_extension",
    "forms": "KForm evaluation_sign kirillov_form radical",
    "linalg": "Matrix Scalar Vector matrix scalar vector",
    "report": "CheckItem CheckReport DimensionMismatch LieforgeError PreconditionError",
    "structures": "ContactStructure FrobeniusStructure KahlerStructure SasakianStructure check_contact "
    "check_frobenius check_kahler check_sasakian",
    "theorems": "DoubleExtensionParams contact_ideal_restriction extend_complex_structure "
    "frobenius_kahler_to_sasakian kahler_extension_obstruction kahler_to_sasakian_central "
    "sasakian_double_extension sasakian_double_extension_conditions sasakian_reduction "
    "sasakian_to_frobenius_kahler",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "fileio"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
