import math

import numpy as np
import pytest

from puhda import numerics
from puhda.errors import InvalidInputError, NonFiniteCells

from _oracles import clamp_pair, kl_pair, softmax_pair


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


class TestPairArithmetic:
    """The pair arithmetic over the two class columns gives the reduction's bits."""

    @staticmethod
    def logits():
        z = np.random.default_rng(23).normal(scale=20.0, size=(300, 2))
        z[:4] = [[1e4, -1e4], [-1e4, 1e4], [1e4, 1e4], [-1e4, -9990.0]]
        return z

    def test_batch_matches_the_reduction_formula(self):
        z = self.logits()
        probs, clamped = numerics._softmax2(z)
        want_probs, want_clamped = _reduction_softmax2(z)
        assert clamped.any() and not clamped.all()
        assert np.array_equal(probs, want_probs)
        assert np.array_equal(clamped, want_clamped)

    def test_single_pairs_match_the_reduction_formula(self):
        for row in self.logits():
            probs, clamped = numerics._softmax2(row)
            want_probs, want_clamped = _reduction_softmax2(row)
            assert probs.shape == (2,)
            assert np.array_equal(probs, want_probs)
            assert clamped == want_clamped

    def test_clamp_matches_the_reduction_formula(self):
        p = np.random.default_rng(29).uniform(0.0, 1.0, size=(300, 2))
        p[:2] = [[0.0, 1.0], [1.0, 1e-9]]
        q = np.minimum(np.maximum(p, numerics.EPS), 1.0 - numerics.EPS)
        assert np.array_equal(numerics.clamp_probs(p), q / q.sum(axis=-1, keepdims=True))


class TestKl2:
    def test_frozen_example(self):
        # oracle: 0.2*ln(0.2/0.6) + 0.8*ln(0.8/0.4)
        want = kl_pair((0.2, 0.8), (0.6, 0.4))
        got = numerics.kl2((0.2, 0.8), (0.6, 0.4))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.3347952867143343, abs=1e-12)

    def test_non_negative_and_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            p = numerics.softmax2(rng.normal(scale=3.0, size=2))
            q = numerics.softmax2(rng.normal(scale=3.0, size=2))
            d = float(numerics.kl2(p, q))
            assert d >= -1e-15
            if abs(p[0] - q[0]) > 1e-9:
                assert d > 0.0
            assert numerics.kl2(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_target_is_cross_entropy(self):
        # kl2(P1, q) collapses to -log q1 up to the clamp epsilon
        rng = np.random.default_rng(9)
        for _ in range(100):
            q = numerics.softmax2(rng.normal(size=2))
            assert float(numerics.kl2(numerics.P1, q)) == pytest.approx(
                -math.log(q[1]), abs=1e-5
            )

    def test_batch_broadcast(self):
        rng = np.random.default_rng(2)
        q = numerics.softmax2(rng.normal(size=(30, 2)))
        vals = numerics.kl2(numerics.P0, q)
        assert vals.shape == (30,)
        singles = [float(numerics.kl2(numerics.P0, qi)) for qi in q]
        assert vals == pytest.approx(singles, abs=1e-15)

    def test_rejects_unclamped(self):
        with pytest.raises(InvalidInputError):
            numerics.kl2((0.0, 1.0), (0.5, 0.5))
        with pytest.raises(InvalidInputError):
            numerics.kl2((0.3, 0.8), (0.5, 0.5))


class TestSwapAndPairedIdentity:
    def test_swap_involution(self):
        rng = np.random.default_rng(4)
        p = numerics.softmax2(rng.normal(size=(20, 2)))
        assert np.array_equal(numerics.swap_probs(numerics.swap_probs(p)), p)

    def test_swap_one_hots(self):
        assert np.array_equal(numerics.swap_probs(numerics.P1), numerics.P0)

    def test_paired_difference_identity(self):
        # kl2(d, c) - kl2(d, swap(c)) == (d1 - d0) * log(c0 / c1)
        rng = np.random.default_rng(123)
        for _ in range(1000):
            d = numerics.softmax2(rng.normal(scale=4.0, size=2))
            c = numerics.softmax2(rng.normal(scale=4.0, size=2))
            lhs = float(numerics.kl2(d, c) - numerics.kl2(d, numerics.swap_probs(c)))
            rhs = (d[1] - d[0]) * math.log(c[0] / c[1])
            assert abs(lhs - rhs) < 1e-9

    def test_balanced_pairs_cancel(self):
        half = numerics.clamp_probs((0.5, 0.5))
        d = numerics.softmax2((0.3, 1.2))
        # balanced second argument: the pair difference is exactly zero
        diff = numerics.kl2(d, half) - numerics.kl2(d, numerics.swap_probs(half))
        assert diff == pytest.approx(0.0, abs=1e-12)
        # balanced first argument likewise
        c = numerics.softmax2((0.7, -0.4))
        diff = numerics.kl2(half, c) - numerics.kl2(half, numerics.swap_probs(c))
        assert diff == pytest.approx(0.0, abs=1e-12)


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
        got = numerics.clamp_probs((1.0, 0.0))
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
