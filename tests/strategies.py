"""Hypothesis strategies shared by the oracle and metamorphic tests.

Kept out of conftest.py, which the benchmark imports for its conjugation
helpers and which therefore must not pull in hypothesis.
"""

import random
from fractions import Fraction

from hypothesis import strategies as st

import lieforge as lf

from conftest import random_jacobi_algebra

RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3, 6])),
    st.builds(Fraction, st.integers(-(10**4), 10**4), st.integers(1, 10**4)),
)


@st.composite
def antisymmetric_algebras(draw, max_dim=5):
    """Any antisymmetric tensor with rational entries: mostly not Lie."""
    dim = draw(st.integers(1, max_dim))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    brackets = {
        pair: draw(st.dictionaries(st.integers(0, dim - 1), RATIONALS, max_size=dim)) for pair in pairs
    }
    return lf.LieAlgebra.from_brackets(dim, brackets)


@st.composite
def lie_or_not(draw):
    """An antisymmetric tensor as above, or a random Lie algebra of dimension <= 6."""
    if draw(st.booleans()):
        return draw(antisymmetric_algebras())
    return random_jacobi_algebra(random.Random(draw(st.integers(0, 10**6))), draw(st.integers(1, 6)))
