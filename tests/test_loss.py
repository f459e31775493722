import math

import numpy as np
import pytest

from bitextmine.errors import NumericalError
from bitextmine.loss import (
    LossConfig,
    SOURCE_TO_TARGET,
    TARGET_TO_SOURCE,
    ams_loss,
    bidirectional_loss,
    loss_and_grad_wrt_embeddings,
    similarity_matrix,
)

from conftest import unit_rows

# Closed-form fixtures, evaluated from the loss definition itself:
# -log(softmax of the margined diagonal) on an identity similarity.
LOSS_IDENTITY_M0 = math.log(1.0 + math.exp(-1.0))  # 0.313262...
LOSS_IDENTITY_M03 = math.log(1.0 + math.exp(-0.7))  # 0.403186...


class TestSimilarityMatrix:
    def test_orthonormal_rows_give_identity(self):
        X = np.eye(3)
        np.testing.assert_allclose(similarity_matrix(X, X), np.eye(3))

    def test_single_identical_pair(self):
        x = np.array([[0.6, 0.8]])
        np.testing.assert_allclose(similarity_matrix(x, x), [[1.0]])

    def test_matches_per_entry_dot_product(self):
        rng = np.random.default_rng(0)
        X, Y = unit_rows(rng, 2, 5), unit_rows(rng, 2, 5)
        S = similarity_matrix(X, Y)
        for i in range(2):
            for j in range(2):
                assert S[i, j] == pytest.approx(float(np.dot(X[i], Y[j])), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            similarity_matrix(np.eye(2), np.eye(3))


class TestAmsLoss:
    def test_single_element_softmax_is_zero(self):
        for m, s in [(0.0, 1.0), (0.3, 10.0), (0.5, 100.0)]:
            assert ams_loss(np.array([[1.0]]), LossConfig(margin=m, scale=s)) == pytest.approx(0.0)

    def test_identity_no_margin(self):
        value = ams_loss(np.eye(2), LossConfig(margin=0.0, scale=1.0))
        assert value == pytest.approx(LOSS_IDENTITY_M0, abs=1e-12)
        assert value == pytest.approx(0.313262, abs=1e-6)

    def test_identity_with_margin(self):
        value = ams_loss(np.eye(2), LossConfig(margin=0.3, scale=1.0))
        assert value == pytest.approx(LOSS_IDENTITY_M03, abs=1e-12)

    def test_directions_differ_on_asymmetric_sim(self):
        sim = np.array([[0.9, 0.8], [-0.5, 0.7]])
        cfg = LossConfig(margin=0.2, scale=5.0)
        fwd = ams_loss(sim, cfg, SOURCE_TO_TARGET)
        bwd = ams_loss(sim, cfg, TARGET_TO_SOURCE)
        assert fwd != pytest.approx(bwd)
        assert bwd == pytest.approx(ams_loss(sim.T, cfg, SOURCE_TO_TARGET))

    def test_non_finite_entries_raise(self):
        with pytest.raises(NumericalError):
            ams_loss(np.array([[1.0, np.nan], [0.0, 1.0]]), LossConfig())

    def test_margin_monotonicity(self):
        rng = np.random.default_rng(1)
        sim = unit_rows(rng, 4, 8) @ unit_rows(rng, 4, 8).T
        values = [ams_loss(sim, LossConfig(margin=m, scale=1.0)) for m in (0.0, 0.1, 0.2, 0.3)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_stability_at_large_scale(self):
        rng = np.random.default_rng(2)
        sim = unit_rows(rng, 4, 8) @ unit_rows(rng, 4, 8).T
        assert math.isfinite(ams_loss(sim, LossConfig(margin=0.3, scale=1e4)))

    def test_scale_preserves_argmax(self):
        rng = np.random.default_rng(3)
        sim = unit_rows(rng, 6, 8) @ unit_rows(rng, 6, 8).T
        margined = sim - 0.3 * np.eye(6)
        ranks = [np.argmax(s * margined, axis=1) for s in (1.0, 10.0, 100.0)]
        for r in ranks[1:]:
            np.testing.assert_array_equal(r, ranks[0])


class TestBidirectional:
    def test_symmetric_sim_doubles_one_direction(self):
        rng = np.random.default_rng(4)
        A = unit_rows(rng, 3, 6)
        sim = A @ A.T  # symmetric
        cfg = LossConfig(margin=0.1, scale=3.0)
        assert bidirectional_loss(sim, cfg) == pytest.approx(2 * ams_loss(sim, cfg), abs=1e-12)

    def test_identity_fixture(self):
        value = bidirectional_loss(np.eye(2), LossConfig(margin=0.0, scale=1.0))
        assert value == pytest.approx(2 * LOSS_IDENTITY_M0, abs=1e-12)
        assert value == pytest.approx(0.626524, abs=1e-6)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(5)
        sim = unit_rows(rng, 5, 7) @ unit_rows(rng, 5, 7).T
        cfg = LossConfig()
        assert bidirectional_loss(sim, cfg) == pytest.approx(bidirectional_loss(sim.T, cfg), abs=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        X, Y = unit_rows(rng, 5, 7), unit_rows(rng, 5, 7)
        perm = rng.permutation(5)
        cfg = LossConfig(margin=0.25, scale=8.0)
        assert bidirectional_loss(similarity_matrix(X, Y), cfg) == pytest.approx(
            bidirectional_loss(similarity_matrix(X[perm], Y[perm]), cfg), abs=1e-12
        )

    def test_default_config_matches_training_setup(self):
        cfg = LossConfig()
        assert cfg.margin == 0.3 and cfg.scale == 10.0


class TestLossGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            n, d = int(rng.integers(2, 9)), int(rng.integers(2, 17))
            X, Y = unit_rows(rng, n, d), unit_rows(rng, n, d)
            cfg = LossConfig(margin=float(rng.uniform(0, 0.5)), scale=float(rng.uniform(1, 20)))
            value, dX, dY = loss_and_grad_wrt_embeddings(X, Y, cfg)
            assert value == pytest.approx(bidirectional_loss(similarity_matrix(X, Y), cfg))
            for M, dM, loss in (
                (X, dX, lambda A: bidirectional_loss(similarity_matrix(A, Y), cfg)),
                (Y, dY, lambda A: bidirectional_loss(similarity_matrix(X, A), cfg)),
            ):
                fd = np.zeros_like(M)
                h = 1e-6
                for idx in np.ndindex(*M.shape):
                    Mp, Mm = M.copy(), M.copy()
                    Mp[idx] += h
                    Mm[idx] -= h
                    fd[idx] = (loss(Mp) - loss(Mm)) / (2 * h)
                rel = np.linalg.norm(fd - dM) / max(np.linalg.norm(fd), np.linalg.norm(dM))
                assert rel <= 1e-4

    def test_gradient_support_structure(self):
        # the loss reads X and Y only through X Y^T, so each dX row lies in
        # the span of Y's rows and each dY row in the span of X's rows
        rng = np.random.default_rng(9)
        X, Y = unit_rows(rng, 3, 8), unit_rows(rng, 3, 8)
        _, dX, dY = loss_and_grad_wrt_embeddings(X, Y, LossConfig())
        for D, basis in ((dX, Y), (dY, X)):
            q, _ = np.linalg.qr(basis.T)
            np.testing.assert_allclose(D - (D @ q) @ q.T, 0.0, atol=1e-12)
            assert np.linalg.norm(D) > 1e-3

    def test_gradient_vanishes_when_separated_and_scale_grows(self):
        # perfectly separated batch (identity similarity): softmax saturates
        # as the scale grows, so gradient norms fall monotonically
        X = np.eye(4)
        Y = np.eye(4)
        norms = []
        for s in (1.0, 10.0, 100.0):
            _, dX, dY = loss_and_grad_wrt_embeddings(X, Y, LossConfig(margin=0.0, scale=s))
            norms.append(np.linalg.norm(dX) + np.linalg.norm(dY))
        assert norms[0] > norms[1] > norms[2]


class TestConfigValidation:
    def test_margin_range(self):
        with pytest.raises(ValueError):
            LossConfig(margin=1.0)
        with pytest.raises(ValueError):
            LossConfig(margin=-0.1)

    def test_scale_positive_finite(self):
        with pytest.raises(ValueError):
            LossConfig(scale=0.0)
        with pytest.raises(ValueError):
            LossConfig(scale=float("inf"))
