import numpy as np
import pytest

from lpfraisse.core import rng_from_seed
from lpfraisse.lattice import (
    MSpaceMap, RoundingError, lattice_round, perturb_embedding, predicates,
    random_exact_embedding, sup_operator_norm,
)


def sup_operator_norm_sign_patterns(matrix: np.ndarray) -> float:
    """Oracle form: brute maximum over the 2^m sign patterns (small m only)."""
    m = matrix.shape[1]
    best = 0.0
    for bits in range(1 << m):
        x = np.array([1.0 if bits >> j & 1 else -1.0 for j in range(m)])
        best = max(best, float(np.max(np.abs(matrix @ x))))
    return best


class TestPredicates:
    def test_exact_embedding_passes_at_zero(self):
        rng = rng_from_seed(1)
        xi = random_exact_embedding(rng, 3, 8)
        rep = predicates(xi, 0.0)
        assert rep.disjoint and rep.positive and rep.isometric

    def test_single_column_example(self):
        g = MSpaceMap(np.array([[0.98], [0.35], [-0.02]]))
        rep = predicates(g, 0.05)
        assert rep.positive          # negative part has sup norm 0.02 <= 0.05
        assert rep.disjoint          # vacuous for one column
        assert rep.isometric

    def test_shared_coordinate_fails_disjoint(self):
        g = MSpaceMap(np.array([[0.3, 0.3], [1.0, 0.0], [0.0, 1.0]]))
        assert not predicates(g, 0.1).disjoint
        assert predicates(g, 0.3).disjoint


class TestOperatorNorm:
    def test_closed_form_equals_sign_patterns(self):
        rng = rng_from_seed(2)
        for _ in range(30):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            A = rng.normal(size=(n, m))
            assert sup_operator_norm(A) == pytest.approx(sup_operator_norm_sign_patterns(A))


class TestRounding:
    def test_single_column_arithmetic(self):
        g = MSpaceMap(np.array([[0.98], [0.35], [-0.02]]))
        r = lattice_round(g, 0.05, mode="lattice")
        assert r.xi.matrix[:, 0] == pytest.approx([1.0, 0.35 / 0.98, 0.0])
        assert r.distance == pytest.approx(0.02 + 0.35 / 0.98 - 0.35 + 0.0, abs=1e-9) or r.distance <= 3 * 0.05
        assert r.distance <= r.bound

    def test_exact_input_fixed(self):
        rng = rng_from_seed(3)
        xi = random_exact_embedding(rng, 2, 6)
        r = lattice_round(xi, 0.05)
        assert r.xi.matrix == pytest.approx(xi.matrix)
        assert r.distance == 0.0

    def test_idempotent_and_clean_output(self):
        rng = rng_from_seed(4)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m, 13))
            delta = float(rng.uniform(0.01, 0.1))
            xi = random_exact_embedding(rng, m, n)
            gam = perturb_embedding(rng, xi, delta)
            r = lattice_round(gam, delta)
            rep = predicates(r.xi, 0.0)
            assert rep.disjoint and rep.positive and rep.isometric
            assert r.distance <= 3 * delta * m + 1e-12
            r2 = lattice_round(r.xi, delta)
            assert np.array_equal(r2.xi.matrix, r.xi.matrix)

    def test_disjoint_mode_keeps_signs(self):
        rng = rng_from_seed(5)
        xi = random_exact_embedding(rng, 2, 6, mode="disjoint")
        gam = perturb_embedding(rng, xi, 0.05, mode="disjoint")
        r = lattice_round(gam, 0.05, mode="disjoint")
        rep = predicates(r.xi, 0.0)
        assert rep.disjoint and rep.isometric

    def test_predicate_failure_refused(self):
        g = MSpaceMap(np.array([[0.3, 0.3], [1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(RoundingError):
            lattice_round(g, 0.1)

    def test_tie_at_threshold_drops(self):
        g = MSpaceMap(np.array([[1.0], [0.05]]))
        r = lattice_round(g, 0.05)
        assert r.xi.matrix[1, 0] == 0.0
