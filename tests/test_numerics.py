import math

import numpy as np
import pytest

from puhda import numerics
from puhda.errors import InvalidInputError, NonFiniteCells
from puhda.models import (
    ConstTarget,
    KLTerm,
    LinearSoftmaxModel,
    ModelOutput,
    RawBatch,
    loss_and_grads,
)

from _oracles import clamp_pair, kl_pair, softmax_pair


def kl(p, q) -> float:
    """KL(p, q) of two-class pairs, summed over rows, as the package computes
    every KL: one term of ``loss_and_grads`` between two constant sides."""
    return loss_and_grads({}, [KLTerm(1.0, ConstTarget(p), ConstTarget(q))]).value


def pair_model(logits) -> tuple[dict, RawBatch]:
    """A classifier ``C`` whose output on its one-row batch is ``softmax2(logits)``."""
    model = LinearSoftmaxModel(np.zeros((1, 2)), np.asarray(logits, dtype=float))
    return {"C": model}, RawBatch(np.zeros((1, 1)))


def paired(d, logits) -> float:
    """The classifier term pair ``KL(d, C(x)) - KL(d, swap(C(x)))``, as
    ``objectives`` builds it, for one pair ``d``."""
    models, batch = pair_model(logits)
    d = ConstTarget(np.atleast_2d(d))
    return loss_and_grads(models, [KLTerm(1.0, d, ModelOutput("C", batch)),
                                   KLTerm(-1.0, d, ModelOutput("C", batch, swapped=True))]).value


class TestSoftmax2:
    def test_log_ratio_pair(self):
        # logits (ln 1, ln 3) put three quarters of the mass on class 1
        p = numerics.softmax2((math.log(1.0), math.log(3.0)))
        assert p == pytest.approx((0.25, 0.75), abs=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            z = rng.normal(scale=5.0, size=2)
            got = numerics.softmax2(z)
            want = softmax_pair(float(z[0]), float(z[1]))
            assert got == pytest.approx(want, abs=1e-12)

    def test_saturated_logits_clamp(self):
        p = numerics.softmax2((0.0, 100.0))
        assert p == pytest.approx((numerics.EPS, 1.0 - numerics.EPS), rel=1e-9)

    def test_valid_pairs_for_huge_magnitudes(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(-1e4, 1e4, size=(500, 2))
        p = numerics.softmax2(z)
        assert np.all(np.isfinite(p))
        assert np.all(p >= numerics.EPS - 1e-15)
        assert np.all(p <= 1.0 - numerics.EPS + 1e-15)
        assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-9)

    def test_batch_matches_rowwise(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(40, 2))
        batch = numerics.softmax2(z)
        rows = np.stack([numerics.softmax2(zi) for zi in z])
        assert np.array_equal(batch, rows)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            numerics.softmax2((float("nan"), 0.0))
        with pytest.raises(InvalidInputError):
            numerics.softmax2((float("inf"), 0.0))

    def test_rejects_wrong_width(self):
        with pytest.raises(InvalidInputError):
            numerics.softmax2((0.0, 1.0, 2.0))


def _reduction_softmax2(z):
    """The softmax-and-clamp written with reductions over the class axis."""
    eps = numerics.EPS
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    q = np.minimum(np.maximum(p, eps), 1.0 - eps)
    return q / q.sum(axis=-1, keepdims=True), (p[..., 1] <= eps) | (p[..., 1] >= 1.0 - eps)


def _reduction_columns(z):
    """``_reduction_softmax2`` as ``_softmax_columns`` returns it: columns, logs, mask."""
    probs, clamped = _reduction_softmax2(z)
    columns = probs[..., 0], probs[..., 1]
    return columns, (np.log(columns[0]), np.log(columns[1])), clamped


class TestPairArithmetic:
    """The softmax on the two class columns gives the reduction's bits: the
    columns, their logs and the clamp mask, and ``softmax2``'s pairs."""

    @staticmethod
    def logits(shape=(300, 2)):
        z = np.random.default_rng(23).normal(scale=20.0, size=shape)
        z.reshape(-1, 2)[:4] = [[1e4, -1e4], [-1e4, 1e4], [1e4, 1e4], [-1e4, -9990.0]]
        return z

    @staticmethod
    def assert_columns_match(z):
        """``_softmax_columns(z)`` against the reduction; returns the clamp mask."""
        (probs, logs, clamped), (want_probs, want_logs, want_clamped) = (
            numerics._softmax_columns(z), _reduction_columns(z))
        for got, want in zip(probs + logs, want_probs + want_logs):
            assert got.shape == z.shape[:-1]
            assert np.array_equal(got, want)
        assert np.array_equal(clamped, want_clamped)
        assert np.array_equal(numerics.softmax2(z), _reduction_softmax2(z)[0])
        return clamped

    def test_batch_matches_the_reduction_formula(self):
        clamped = self.assert_columns_match(self.logits())
        assert clamped.any() and not clamped.all()

    @pytest.mark.parametrize("shape", [(4, 75, 2), (64, 128, 2), (1024, 2)])
    def test_stacks_and_long_batches_match_the_reduction_formula(self, shape):
        clamped = self.assert_columns_match(self.logits(shape))
        assert clamped.any() and not clamped.all()

    def test_single_pairs_match_the_reduction_formula(self):
        for row in self.logits():
            assert self.assert_columns_match(row[None]).shape == (1,)
            probs = numerics.softmax2(row)
            want_probs, want_clamped = _reduction_softmax2(row)
            assert probs.shape == (2,)
            assert np.array_equal(probs, want_probs)
            assert numerics._softmax_columns(row[None])[2][0] == want_clamped

    def test_clamp_matches_the_reduction_formula(self):
        p = np.random.default_rng(29).uniform(0.0, 1.0, size=(300, 2))
        p[:2] = [[0.0, 1.0], [1.0, 1e-9]]
        q = np.minimum(np.maximum(p, numerics.EPS), 1.0 - numerics.EPS)
        got = np.stack(numerics._clamp(*p.T.copy()), axis=-1)
        assert np.array_equal(got, q / q.sum(axis=-1, keepdims=True))
        assert np.array_equal(np.concatenate(numerics._clamp(*p[0, :, None].copy())),
                              q[0] / q[0].sum())
        assert np.array_equal(p[:2], [[0.0, 1.0], [1.0, 1e-9]])   # the input is left as it was


class TestKl2:
    """The two-class KL divergence of the loss's terms."""

    def test_frozen_example(self):
        # oracle: 0.2*ln(0.2/0.6) + 0.8*ln(0.8/0.4)
        want = kl_pair((0.2, 0.8), (0.6, 0.4))
        got = kl((0.2, 0.8), (0.6, 0.4))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.3347952867143343, abs=1e-12)

    def test_non_negative_and_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            p = numerics.softmax2(rng.normal(scale=3.0, size=2))
            q = numerics.softmax2(rng.normal(scale=3.0, size=2))
            d = kl(p, q)
            assert d >= -1e-15
            if abs(p[0] - q[0]) > 1e-9:
                assert d > 0.0
            assert kl(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_target_is_cross_entropy(self):
        # KL(P1, q) collapses to -log q1 up to the clamp epsilon
        rng = np.random.default_rng(9)
        for _ in range(100):
            q = numerics.softmax2(rng.normal(size=2))
            assert kl(numerics.P1, q) == pytest.approx(-math.log(q[1]), abs=1e-5)

    def test_batch_broadcast(self):
        # one pair against a batch: the sum of the one-pair divergences
        rng = np.random.default_rng(2)
        q = numerics.softmax2(rng.normal(size=(30, 2)))
        singles = [kl(numerics.P0, qi) for qi in q]
        assert kl(numerics.P0, q) == pytest.approx(sum(singles), abs=1e-12)

    def test_rejects_unclamped(self):
        with pytest.raises(InvalidInputError):
            kl((0.0, 1.0), (0.5, 0.5))
        with pytest.raises(InvalidInputError):
            kl((0.3, 0.8), (0.5, 0.5))


class TestSwapAndPairedIdentity:
    """The swapped side of a model output, which the classifier term pairs read."""

    def test_swap_involution(self):
        # scoring against the swapped output is scoring the swapped constant
        # against the output, in value and in gradient
        rng = np.random.default_rng(4)
        models, batch = pair_model(rng.normal(size=2))
        for _ in range(20):
            d = numerics.softmax2(rng.normal(size=(1, 2)))
            swapped = loss_and_grads(models, [KLTerm(1.0, ConstTarget(d), ModelOutput(
                "C", batch, swapped=True))], wrt=("C",))
            plain = loss_and_grads(models, [KLTerm(1.0, ConstTarget(d[:, ::-1]), ModelOutput(
                "C", batch))], wrt=("C",))
            assert swapped.value == plain.value
            assert np.array_equal(swapped.grads["C"].d_bias, plain.grads["C"].d_bias)

    def test_swap_one_hots(self):
        models, batch = pair_model((0.3, -1.1))
        real = loss_and_grads(models, [KLTerm(1.0, ConstTarget(numerics.P1), ModelOutput(
            "C", batch, swapped=True))])
        fake = loss_and_grads(models, [KLTerm(1.0, ConstTarget(numerics.P0), ModelOutput(
            "C", batch))])
        assert real.value == fake.value

    def test_paired_difference_identity(self):
        # KL(d, c) - KL(d, swap(c)) == (d1 - d0) * log(c0 / c1)
        rng = np.random.default_rng(123)
        for _ in range(1000):
            d = numerics.softmax2(rng.normal(scale=4.0, size=2))
            logits = rng.normal(scale=4.0, size=2)
            c = numerics.softmax2(logits)
            rhs = (d[1] - d[0]) * math.log(c[0] / c[1])
            assert abs(paired(d, logits) - rhs) < 1e-9

    def test_balanced_pairs_cancel(self):
        half = numerics.softmax2((0.0, 0.0))
        d = numerics.softmax2((0.3, 1.2))
        # balanced second argument: the pair difference is exactly zero
        assert paired(d, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)
        # balanced first argument likewise
        assert paired(half, (0.7, -0.4)) == pytest.approx(0.0, abs=1e-12)


class TestRequireFinite:
    def test_a_stack_marks_its_non_finite_cells(self):
        stack = np.zeros((3, 4, 2))
        stack[1, 2, 0] = np.nan
        with pytest.raises(NonFiniteCells, match="^logits: values must be finite$") as err:
            numerics.require_finite("logits", stack)
        assert err.value.cells.tolist() == [False, True, False]

    def test_one_cell_gets_a_0d_mask_and_the_same_message(self):
        rows = np.zeros((4, 2))
        rows[3, 1] = np.inf
        with pytest.raises(NonFiniteCells, match="^rows: values must be finite$") as err:
            numerics.require_finite("rows", rows)
        assert err.value.cells.shape == ()
        assert bool(err.value.cells)

    def test_finite_and_empty_arrays_pass_as_float64(self):
        got = numerics.require_finite("rows", [[1, 2]])
        assert got.dtype == np.float64 and got.tolist() == [[1.0, 2.0]]
        assert numerics.require_finite("empty", np.empty((0, 2, 2))).shape == (0, 2, 2)


class TestClampAndConstants:
    def test_clamp_of_hard_one_hot(self):
        got = np.concatenate(numerics._clamp(np.array([1.0]), np.array([0.0])))
        want = clamp_pair(1.0, 0.0)
        assert got == pytest.approx(want, abs=1e-15)
        assert np.array_equal(got, numerics.P0)

    def test_constants_are_valid_and_readonly(self):
        numerics.prob_pairs(numerics.P0)
        numerics.prob_pairs(numerics.P1)
        with pytest.raises(ValueError):
            numerics.P1[0] = 0.5


class TestRng:
    def test_same_seed_same_stream(self):
        a = numerics.make_rng(42).normal(size=8)
        b = numerics.make_rng(42).normal(size=8)
        assert np.array_equal(a, b)

    def test_derive_rng_stable_and_tag_sensitive(self):
        a = numerics.derive_rng(7, "phase", 1).normal(size=4)
        b = numerics.derive_rng(7, "phase", 1).normal(size=4)
        c = numerics.derive_rng(7, "phase", 2).normal(size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_bad_seeds(self):
        with pytest.raises(InvalidInputError):
            numerics.make_rng(-1)
        with pytest.raises(InvalidInputError):
            numerics.make_rng(1.5)
