from fractions import Fraction

import pytest

from nilcomplex import linalg


def test_mat_mul():
    A = [[1, Fraction(1, 2)], [0, 3]]
    assert linalg.mat_mul(A, [[2, 0], [4, 1]]) == [[4, Fraction(1, 2)], [12, 3]]


@pytest.mark.parametrize("A, B", [([[1, 2]], [[1, 2]]), ([[1], [2]], [[1, 2], [3, 4]])])
def test_mat_mul_refuses_mismatched_shapes(A, B):
    # an assert here vanished under python -O, and [[1, 2]] x [[1, 2]] gave [[1, 2]]
    with pytest.raises(ValueError, match="cannot multiply"):
        linalg.mat_mul(A, B)
