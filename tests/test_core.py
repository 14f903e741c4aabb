import numpy as np
import pytest
from fractions import Fraction

from lpfraisse.core import PIndex, norm_p, rng_from_seed

PS = [PIndex.of(p) for p in (1, Fraction(3, 2), 2, 3, 7, None)]


def _vector_norm_reference(x, p):
    """Frozen copy of the per-case vector norm norm_p replaced."""
    if p.is_inf:
        return float(np.max(np.abs(x)))
    pf = float(p)
    if pf == 1:
        return float(np.sum(np.abs(x)))
    if pf == 2:
        return float(np.linalg.norm(x))
    return float(np.sum(np.abs(x) ** pf) ** (1.0 / pf))


def _slice_norms_reference(pts, p, axis):
    """Frozen copy of the power-sum row and column norms norm_p replaced."""
    if p.is_inf:
        return np.max(np.abs(pts), axis=axis)
    pf = float(p)
    return np.sum(np.abs(pts) ** pf, axis=axis) ** (1 / pf)


@pytest.mark.parametrize("p", PS, ids=repr)
def test_norm_p_bit_identical_to_reference(p):
    rng = rng_from_seed(31)
    for n in range(1, 1001):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        assert norm_p(x, p) == _vector_norm_reference(x, p)
        if n % 37 == 1:
            pts = rng.standard_normal((5, n))
            assert np.array_equal(norm_p(pts, p, axis=1), _slice_norms_reference(pts, p, 1))
            assert np.array_equal(norm_p(pts, p, axis=0), _slice_norms_reference(pts, p, 0))
            # a transposed product, as the Auerbach check builds it
            tpts = (pts.T @ rng.standard_normal((5, 5))).T
            assert np.array_equal(norm_p(tpts, p, axis=1), _slice_norms_reference(tpts, p, 1))


def test_norm_p_plain_numbers_and_empty():
    x = np.array([3.0, -4.0])
    assert norm_p(x, 2) == 5.0 and norm_p(x, PIndex.of(2)) == 5.0
    assert norm_p(x, 1) == 7.0 and norm_p(x, float("inf")) == 4.0
    assert norm_p(np.array([]), PIndex.of(3)) == 0.0
