import ast
import math
from pathlib import Path

import numpy as np
import pytest

from bitextmine.errors import NumericalError
from bitextmine.loss import LossConfig, loss_and_grad_wrt_embeddings, softmax_cross_entropy

from conftest import unit_rows

SRC = Path(__file__).resolve().parents[1] / "src" / "bitextmine"

# Closed-form fixtures, evaluated from the loss definition itself:
# -log(softmax of the margined diagonal) on an identity similarity.
LOSS_IDENTITY_M0 = math.log(1.0 + math.exp(-1.0))  # 0.313262...
LOSS_IDENTITY_M03 = math.log(1.0 + math.exp(-0.7))  # 0.403186...


def reference_direction(sim, cfg):
    """One direction of the ranking loss, entry by entry from its
    definition: the mean over rows i of -log softmax_i(s * (S_ij - m [i == j]))."""
    n = len(sim)
    total = 0.0
    for i in range(n):
        z = [cfg.scale * (float(sim[i][j]) - (cfg.margin if i == j else 0.0)) for j in range(len(sim[i]))]
        top = max(z)
        total += top + math.log(sum(math.exp(v - top) for v in z)) - z[i]
    return total / n


def reference_loss(X, Y, cfg):
    """The bidirectional loss from per-entry dot products of the rows."""
    sim = [[float(np.dot(x, y)) for y in Y] for x in X]
    sim_t = [list(col) for col in zip(*sim)]
    return reference_direction(sim, cfg) + reference_direction(sim_t, cfg)


def loss_value(X, Y, cfg):
    return loss_and_grad_wrt_embeddings(X, Y, cfg)[0]


def mean_term(logits, targets):
    terms, _ = softmax_cross_entropy(np.asarray(logits, dtype=np.float64), np.asarray(targets))
    return float(np.mean(terms))


class TestSimilarityMatrix:
    """The loss reads the embeddings only through their cosine matrix X Y^T."""

    def test_orthonormal_rows_give_identity(self):
        # orthonormal rows: S = I, so every row's positive leads its negatives by 1
        cfg = LossConfig(margin=0.0, scale=1.0)
        expected = 2 * math.log(1.0 + 2 * math.exp(-1.0))
        assert loss_value(np.eye(3), np.eye(3), cfg) == pytest.approx(expected, abs=1e-12)

    def test_single_identical_pair(self):
        x = np.array([[0.6, 0.8]])
        value, dX, dY = loss_and_grad_wrt_embeddings(x, x, LossConfig())
        assert value == pytest.approx(0.0)
        np.testing.assert_array_equal(dX, 0.0)
        np.testing.assert_array_equal(dY, 0.0)

    def test_matches_per_entry_dot_product(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5):
            X, Y = unit_rows(rng, n, 5), unit_rows(rng, n, 5)
            cfg = LossConfig(margin=0.2, scale=7.0)
            assert loss_value(X, Y, cfg) == pytest.approx(reference_loss(X, Y, cfg), abs=1e-12)

    def test_shape_mismatch(self):
        for X, Y in ((np.eye(2), np.eye(3)), (np.eye(2), np.eye(2)[:, :1]), (np.ones(2), np.ones(2))):
            with pytest.raises(ValueError, match="matching N x d"):
                loss_and_grad_wrt_embeddings(X, Y, LossConfig())


class TestAmsLoss:
    """One direction: the kernel over one margined, scaled similarity block."""

    def test_single_element_softmax_is_zero(self):
        for z in (0.0, 1.0, -50.0, 1e4):
            terms, grad = softmax_cross_entropy(np.array([[z]]), np.array([0]))
            assert terms[0] == pytest.approx(0.0)
            np.testing.assert_array_equal(grad, [[0.0]])

    def test_identity_no_margin(self):
        value = mean_term(np.eye(2), [0, 1])
        assert value == pytest.approx(LOSS_IDENTITY_M0, abs=1e-12)
        assert value == pytest.approx(0.313262, abs=1e-6)

    def test_identity_with_margin(self):
        assert mean_term(np.eye(2) - 0.3 * np.eye(2), [0, 1]) == pytest.approx(LOSS_IDENTITY_M03, abs=1e-12)
        value = loss_value(np.eye(2), np.eye(2), LossConfig(margin=0.3, scale=1.0))
        assert value == pytest.approx(2 * LOSS_IDENTITY_M03, abs=1e-12)

    def test_directions_differ_on_asymmetric_sim(self):
        sim = np.array([[0.9, 0.8], [-0.5, 0.7]])
        cfg = LossConfig(margin=0.2, scale=5.0)
        fwd = mean_term(cfg.scale * (sim - cfg.margin * np.eye(2)), [0, 1])
        bwd = mean_term(cfg.scale * (sim.T - cfg.margin * np.eye(2)), [0, 1])
        assert fwd != pytest.approx(bwd)
        assert fwd == pytest.approx(reference_direction(sim, cfg), abs=1e-12)
        assert bwd == pytest.approx(reference_direction(sim.T, cfg), abs=1e-12)

    def test_non_finite_entries_raise(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NumericalError, match="non-finite"):
                softmax_cross_entropy(np.array([[1.0, bad], [0.0, 1.0]]), np.array([0, 1]))
        X = np.eye(2)
        X[1, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            loss_and_grad_wrt_embeddings(X, np.eye(2), LossConfig())

    def test_margin_monotonicity(self):
        rng = np.random.default_rng(1)
        X, Y = unit_rows(rng, 4, 8), unit_rows(rng, 4, 8)
        values = [loss_value(X, Y, LossConfig(margin=m, scale=1.0)) for m in (0.0, 0.1, 0.2, 0.3)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_stability_at_large_scale(self):
        rng = np.random.default_rng(2)
        X, Y = unit_rows(rng, 4, 8), unit_rows(rng, 4, 8)
        value, dX, dY = loss_and_grad_wrt_embeddings(X, Y, LossConfig(margin=0.3, scale=1e4))
        assert math.isfinite(value)
        assert np.isfinite(dX).all() and np.isfinite(dY).all()

    def test_scale_preserves_argmax(self):
        # the kernel's softmax (its gradient plus the one-hot target) keeps
        # each row's best column as the scale grows
        rng = np.random.default_rng(3)
        sim = unit_rows(rng, 6, 8) @ unit_rows(rng, 6, 8).T
        margined = sim - 0.3 * np.eye(6)
        ranks = []
        for s in (1.0, 10.0, 100.0):
            _, grad = softmax_cross_entropy(s * margined, np.arange(6))
            ranks.append(np.argmax(grad + np.eye(6), axis=1))
        np.testing.assert_array_equal(ranks[0], np.argmax(margined, axis=1))
        for r in ranks[1:]:
            np.testing.assert_array_equal(r, ranks[0])


class TestSoftmaxCrossEntropy:
    @pytest.mark.parametrize("n, c", [(5, 9), (7, 3), (4, 4), (1, 6)])
    def test_arbitrary_targets_match_the_definition(self, n, c):
        rng = np.random.default_rng(10 * n + c)
        logits = rng.normal(scale=4.0, size=(n, c))
        targets = rng.integers(0, c, size=n)
        terms, grad = softmax_cross_entropy(logits, targets)
        assert terms.shape == (n,) and grad.shape == (n, c)
        for i in range(n):
            lse = math.log(sum(math.exp(v) for v in logits[i]))
            assert terms[i] == pytest.approx(lse - logits[i, targets[i]], abs=1e-12)
            for j in range(c):
                expected = math.exp(logits[i, j] - lse) - (1.0 if j == targets[i] else 0.0)
                assert grad[i, j] == pytest.approx(expected, abs=1e-12)


class TestBidirectional:
    def test_symmetric_sim_doubles_one_direction(self):
        rng = np.random.default_rng(4)
        A = unit_rows(rng, 3, 6)
        cfg = LossConfig(margin=0.1, scale=3.0)
        one = reference_direction((A @ A.T).tolist(), cfg)  # symmetric
        assert loss_value(A, A, cfg) == pytest.approx(2 * one, abs=1e-12)

    def test_identity_fixture(self):
        value = loss_value(np.eye(2), np.eye(2), LossConfig(margin=0.0, scale=1.0))
        assert value == pytest.approx(2 * LOSS_IDENTITY_M0, abs=1e-12)
        assert value == pytest.approx(0.626524, abs=1e-6)

    def test_transpose_invariance(self):
        # swapping the sides transposes S, which swaps the two directions
        rng = np.random.default_rng(5)
        X, Y = unit_rows(rng, 5, 7), unit_rows(rng, 5, 7)
        cfg = LossConfig()
        value, dX, dY = loss_and_grad_wrt_embeddings(X, Y, cfg)
        swapped, dY2, dX2 = loss_and_grad_wrt_embeddings(Y, X, cfg)
        assert swapped == pytest.approx(value, abs=1e-12)
        np.testing.assert_allclose(dX2, dX, atol=1e-12)
        np.testing.assert_allclose(dY2, dY, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        X, Y = unit_rows(rng, 5, 7), unit_rows(rng, 5, 7)
        perm = rng.permutation(5)
        cfg = LossConfig(margin=0.25, scale=8.0)
        value, dX, dY = loss_and_grad_wrt_embeddings(X, Y, cfg)
        permuted, dXp, dYp = loss_and_grad_wrt_embeddings(X[perm], Y[perm], cfg)
        assert permuted == pytest.approx(value, abs=1e-12)
        np.testing.assert_allclose(dXp, dX[perm], atol=1e-12)
        np.testing.assert_allclose(dYp, dY[perm], atol=1e-12)

    def test_default_config_matches_training_setup(self):
        cfg = LossConfig()
        assert cfg.margin == 0.3 and cfg.scale == 10.0


class TestLossGrad:
    def test_matches_finite_differences(self):
        # against the entry-by-entry reference, not the kernel itself
        rng = np.random.default_rng(7)
        for _ in range(8):
            n, d = int(rng.integers(2, 9)), int(rng.integers(2, 17))
            X, Y = unit_rows(rng, n, d), unit_rows(rng, n, d)
            cfg = LossConfig(margin=float(rng.uniform(0, 0.5)), scale=float(rng.uniform(1, 20)))
            value, dX, dY = loss_and_grad_wrt_embeddings(X, Y, cfg)
            assert value == pytest.approx(reference_loss(X, Y, cfg), abs=1e-10)
            for M, dM, loss in (
                (X, dX, lambda A: reference_loss(A, Y, cfg)),
                (Y, dY, lambda A: reference_loss(X, A, cfg)),
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


def test_softmax_cross_entropy_is_the_only_exponential():
    """Every ``exp`` call in the package, as (module, the top-level
    function or class it is in): both training objectives take their
    log-sum-exp from the one kernel."""
    calls = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "exp" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    calls.add((path.stem, getattr(top, "name", "<module>")))
    assert calls == {("loss", "softmax_cross_entropy")}


def test_array_constructors_of_the_training_path_name_their_dtype():
    """``np.empty``, ``np.zeros``, ``np.ones`` and ``np.eye`` make float64
    arrays unless told otherwise. In the modules that encode and train,
    each call names its dtype, so that no kernel falls back to float64
    when the parameters are float32."""
    bare = []
    for stem in ("encoder", "loss", "trainer", "negatives"):
        for node in ast.walk(ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and getattr(node.func.value, "id", None) == "np"
                and node.func.attr in ("empty", "zeros", "ones", "eye")
                and not any(keyword.arg == "dtype" for keyword in node.keywords)
            ):
                bare.append(f"{stem}.py:{node.lineno}: np.{node.func.attr}")
    assert bare == []
