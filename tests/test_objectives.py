import numpy as np
import pytest

from puhda import numerics
from puhda.errors import ConfigurationError, InvalidInputError
from puhda.models import (
    ConstTarget,
    LinearSoftmaxModel,
    LinearTransform,
    LossPlan,
    ModelOutput,
    RawBatch,
    TransformedBatch,
    loss_and_grads,
)
from puhda.objectives import (
    CompletionBlocks,
    classifier_terms,
    distillation_terms,
    domain_adv_terms,
    dsft_loss,
    pu_terms,
    supervised_terms,
)

from _oracles import (
    clamp_pair,
    classify_row,
    finite_difference,
    kl_pair,
    mmd_linear,
    pack_grads,
    pack_params,
    relative_error,
    set_params,
    transform_row,
)

P1 = clamp_pair(0.0, 1.0)
P0 = clamp_pair(1.0, 0.0)


def _pan(bp, bu, lam, **teacher):
    """The PU terms on positive and unlabeled rows of one feature space."""
    return pu_terms(RawBatch(bp), RawBatch(bu), lam, **teacher)


def _pada(bs, bt, c, lam, **teacher):
    """The PU terms on source rows and target rows aligned by F."""
    return pu_terms(RawBatch(bs), TransformedBatch(bt, c), lam, **teacher)


def _pan_value_oracle(c_model, d_model, batch_pos, batch_unl, lam):
    """Scalar re-evaluation of the adversarial PU value."""
    val = 0.0
    for x in batch_pos:
        val -= kl_pair(P1, classify_row(d_model.weights, d_model.bias, x)) / len(batch_pos)
    for x in batch_unl:
        d = classify_row(d_model.weights, d_model.bias, x)
        c = classify_row(c_model.weights, c_model.bias, x)
        val -= kl_pair(P0, d) / len(batch_unl)
        val += lam * (kl_pair(d, c) - kl_pair(d, (c[1], c[0]))) / len(batch_unl)
    return val


def _aligned_rows(f_model, batch_target, n_common):
    rows = []
    for row in batch_target:
        mapped = transform_row(f_model.weights, f_model.bias, row)
        rows.append(list(row[:n_common]) + mapped)
    return rows


def _models(rng, c, s, t):
    return {
        "C": LinearSoftmaxModel(rng.normal(size=(c + s, 2)), rng.normal(size=2)),
        "D": LinearSoftmaxModel(rng.normal(size=(c + s, 2)), rng.normal(size=2)),
        "F": LinearTransform(rng.normal(size=(c + t, s)), rng.normal(size=s)),
    }


class TestPanTerms:
    def test_value_matches_scalar_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            models = {
                "C": LinearSoftmaxModel(rng.normal(size=(d, 2)), rng.normal(size=2)),
                "D": LinearSoftmaxModel(rng.normal(size=(d, 2)), rng.normal(size=2)),
            }
            bp = rng.normal(size=(int(rng.integers(1, 6)), d))
            bu = rng.normal(size=(int(rng.integers(1, 6)), d))
            lam = float(rng.uniform(0, 1))
            got = loss_and_grads(models, _pan(bp, bu, lam)).value
            want = _pan_value_oracle(models["C"], models["D"], bp, bu, lam)
            assert got == pytest.approx(want, abs=1e-10)

    def test_lam_zero_gives_classifier_no_gradient(self):
        rng = np.random.default_rng(11)
        models = {
            "C": LinearSoftmaxModel(rng.normal(size=(3, 2)), rng.normal(size=2)),
            "D": LinearSoftmaxModel(rng.normal(size=(3, 2)), rng.normal(size=2)),
        }
        terms = _pan(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), lam=0.0)
        res = loss_and_grads(models, terms, wrt=("C",))
        assert np.array_equal(res.grads["C"].d_weights, np.zeros((3, 2)))
        assert np.array_equal(res.grads["C"].d_bias, np.zeros(2))

    def test_lam_scales_classifier_pair_linearly(self):
        rng = np.random.default_rng(12)
        models = {
            "C": LinearSoftmaxModel(rng.normal(size=(3, 2)), rng.normal(size=2)),
            "D": LinearSoftmaxModel(rng.normal(size=(3, 2)), rng.normal(size=2)),
        }
        bp = rng.normal(size=(4, 3))
        bu = rng.normal(size=(5, 3))
        base = loss_and_grads(models, _pan(bp, bu, lam=0.25)).term_values
        doubled = loss_and_grads(models, _pan(bp, bu, lam=0.5)).term_values
        assert doubled[2] == pytest.approx(2 * base[2], rel=1e-12)
        assert doubled[3] == pytest.approx(2 * base[3], rel=1e-12)
        assert doubled[0] == base[0] and doubled[1] == base[1]

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        names = ("C", "D")
        for _ in range(15):
            d = int(rng.integers(1, 4))
            models = {
                "C": LinearSoftmaxModel(rng.normal(size=(d, 2)), rng.normal(size=2)),
                "D": LinearSoftmaxModel(rng.normal(size=(d, 2)), rng.normal(size=2)),
            }
            terms = _pan(
                rng.normal(size=(int(rng.integers(1, 5)), d)),
                rng.normal(size=(int(rng.integers(1, 5)), d)),
                lam=float(rng.uniform(0.05, 1.0)),
            )
            res = loss_and_grads(models, terms, wrt=names)

            def value_fn(vec):
                set_params(models, names, vec)
                return loss_and_grads(models, terms).value

            start = pack_params(models, names)
            fd = finite_difference(value_fn, start)
            set_params(models, names, start)
            assert relative_error(pack_grads(res.grads, names), fd) < 1e-4


class TestPadaTerms:
    def test_equals_pan_on_precomputed_alignment(self):
        # with F frozen, the heterogeneous value is the PU value on [t_c ; F(x_t)]
        rng = np.random.default_rng(20)
        c, s, t = 2, 3, 2
        models = _models(rng, c, s, t)
        bs = rng.normal(size=(4, c + s))
        bt = rng.normal(size=(5, c + t))
        lam = 0.3
        pada_val = loss_and_grads(models, _pada(bs, bt, c, lam)).value
        aligned = np.hstack([bt[:, :c], models["F"].transform(bt)])
        pan_val = loss_and_grads(models, _pan(bs, aligned, lam)).value
        assert pada_val == pan_val

    def test_source_term_has_no_transform_gradient(self):
        rng = np.random.default_rng(21)
        c, s, t = 2, 2, 3
        models = _models(rng, c, s, t)
        terms = _pada(rng.normal(size=(4, c + s)), rng.normal(size=(4, c + t)), c, 0.5)
        res = loss_and_grads(models, [terms[0]], wrt=("F",))
        assert np.array_equal(res.grads["F"].d_weights, np.zeros((c + t, s)))
        assert np.array_equal(res.grads["F"].d_bias, np.zeros(s))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(22)
        names = ("C", "D", "F")
        for _ in range(15):
            c = int(rng.integers(1, 4))
            s = int(rng.integers(1, 4))
            t = int(rng.integers(1, 4))
            models = _models(rng, c, s, t)
            terms = _pada(
                rng.normal(size=(int(rng.integers(1, 5)), c + s)),
                rng.normal(size=(int(rng.integers(1, 5)), c + t)),
                c,
                lam=float(rng.uniform(0.05, 1.0)),
            )
            res = loss_and_grads(models, terms, wrt=names)

            def value_fn(vec):
                set_params(models, names, vec)
                return loss_and_grads(models, terms).value

            start = pack_params(models, names)
            fd = finite_difference(value_fn, start)
            set_params(models, names, start)
            assert relative_error(pack_grads(res.grads, names), fd) < 1e-4


class TestPadaSTerms:
    def test_eta_zero_is_bit_identical_to_pada(self):
        rng = np.random.default_rng(30)
        c, s, t = 2, 3, 2
        models = _models(rng, c, s, t)
        bs = rng.normal(size=(4, c + s))
        bt = rng.normal(size=(5, c + t))
        teacher = numerics.softmax2(rng.normal(size=(5, 2)))
        names = ("C", "D", "F")
        plain = loss_and_grads(models, _pada(bs, bt, c, 0.4), wrt=names)
        soft = loss_and_grads(
            models, _pada(bs, bt, c, 0.4, eta=0.0, teacher_probs=teacher), wrt=names
        )
        assert plain.value == soft.value
        for nm in names:
            assert np.array_equal(plain.grads[nm].d_weights, soft.grads[nm].d_weights)
            assert np.array_equal(plain.grads[nm].d_bias, soft.grads[nm].d_bias)

    def test_balanced_teacher_pair_cancels(self):
        rng = np.random.default_rng(31)
        c, s, t = 2, 2, 2
        models = _models(rng, c, s, t)
        bt = rng.normal(size=(6, c + t))
        teacher = np.full((6, 2), 0.5)
        terms = _pada(rng.normal(size=(4, c + s)), bt, c, 0.3, eta=0.7, teacher_probs=teacher)
        res = loss_and_grads(models, terms, wrt=("C", "F"))
        assert res.term_values[4] + res.term_values[5] == 0.0
        plain = loss_and_grads(models, terms[:4], wrt=("C", "F"))
        for nm in ("C", "F"):
            assert res.grads[nm].d_weights == pytest.approx(plain.grads[nm].d_weights, abs=1e-12)

    def test_teacher_row_mismatch_is_configuration_error(self):
        rng = np.random.default_rng(32)
        with pytest.raises(ConfigurationError):
            _pada(
                rng.normal(size=(3, 4)),
                rng.normal(size=(5, 4)),
                2,
                0.1,
                eta=0.2,
                teacher_probs=numerics.softmax2(rng.normal(size=(4, 2))),
            )

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(33)
        names = ("C", "D", "F")
        for _ in range(15):
            c = int(rng.integers(1, 4))
            s = int(rng.integers(1, 4))
            t = int(rng.integers(1, 4))
            n_t = int(rng.integers(1, 5))
            models = _models(rng, c, s, t)
            terms = _pada(
                rng.normal(size=(int(rng.integers(1, 5)), c + s)),
                rng.normal(size=(n_t, c + t)),
                c,
                lam=float(rng.uniform(0.05, 1.0)),
                eta=float(rng.uniform(0.05, 1.0)),
                teacher_probs=numerics.softmax2(rng.normal(size=(n_t, 2))),
            )
            res = loss_and_grads(models, terms, wrt=names)

            def value_fn(vec):
                set_params(models, names, vec)
                return loss_and_grads(models, terms).value

            start = pack_params(models, names)
            fd = finite_difference(value_fn, start)
            set_params(models, names, start)
            assert relative_error(pack_grads(res.grads, names), fd) < 1e-4


class TestDomainAdvAndHelpers:
    def test_value_matches_scalar_oracle(self):
        rng = np.random.default_rng(40)
        c, s, t = 2, 2, 3
        models = {
            "Df": LinearSoftmaxModel(rng.normal(size=(c + s, 2)), rng.normal(size=2)),
            "F": LinearTransform(rng.normal(size=(c + t, s)), rng.normal(size=s)),
        }
        bs = rng.normal(size=(4, c + s))
        bt = rng.normal(size=(5, c + t))
        got = loss_and_grads(models, domain_adv_terms(RawBatch(bs), TransformedBatch(bt, c))).value
        want = 0.0
        for x in bs:
            want -= kl_pair(P1, classify_row(models["Df"].weights, models["Df"].bias, x)) / 4
        for row in _aligned_rows(models["F"], bt, c):
            want -= kl_pair(P0, classify_row(models["Df"].weights, models["Df"].bias, row)) / 5
        assert got == pytest.approx(want, abs=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(41)
        names = ("Df", "F")
        for _ in range(15):
            c = int(rng.integers(1, 4))
            s = int(rng.integers(1, 4))
            t = int(rng.integers(1, 4))
            models = {
                "Df": LinearSoftmaxModel(rng.normal(size=(c + s, 2)), rng.normal(size=2)),
                "F": LinearTransform(rng.normal(size=(c + t, s)), rng.normal(size=s)),
            }
            terms = domain_adv_terms(
                RawBatch(rng.normal(size=(int(rng.integers(1, 5)), c + s))),
                TransformedBatch(rng.normal(size=(int(rng.integers(1, 5)), c + t)), c),
            )
            res = loss_and_grads(models, terms, wrt=names)

            def value_fn(vec):
                set_params(models, names, vec)
                return loss_and_grads(models, terms).value

            start = pack_params(models, names)
            fd = finite_difference(value_fn, start)
            set_params(models, names, start)
            assert relative_error(pack_grads(res.grads, names), fd) < 1e-4

    def test_distillation_and_supervised_shapes(self):
        rng = np.random.default_rng(42)
        teacher = numerics.softmax2(rng.normal(size=(4, 2)))
        terms = distillation_terms(teacher, RawBatch(rng.normal(size=(4, 6))))
        assert len(terms) == 1 and terms[0].weight == pytest.approx(0.25)
        with pytest.raises(ConfigurationError):
            distillation_terms(teacher, RawBatch(rng.normal(size=(5, 6))))
        sup = supervised_terms(RawBatch(rng.normal(size=(2, 3))), RawBatch(rng.normal(size=(4, 3))))
        assert sup[0].weight == pytest.approx(-0.5)
        assert sup[1].weight == pytest.approx(-0.25)


def completion_instance(rng):
    """Random completion data and maps: blocks s_c, s_s, t_c, t_t, then psi_s, psi_t."""
    c = int(rng.integers(1, 4))
    s = int(rng.integers(1, 4))
    t = int(rng.integers(1, 4))
    psi_s = LinearTransform(rng.normal(size=(c, s)), rng.normal(size=s))
    psi_t = LinearTransform(rng.normal(size=(c, t)), rng.normal(size=t))
    s_c = rng.normal(size=(int(rng.integers(1, 6)), c))
    s_s = rng.normal(size=(s_c.shape[0], s))
    t_c = rng.normal(size=(int(rng.integers(1, 6)), c))
    t_t = rng.normal(size=(t_c.shape[0], t))
    return s_c, s_s, t_c, t_t, psi_s, psi_t


def mean_filling_maps(s_s, t_t, n_common):
    """Completion maps that fill each missing block with that block's mean."""
    return (LinearTransform(np.zeros((n_common, s_s.shape[1])), s_s.mean(axis=0)),
            LinearTransform(np.zeros((n_common, t_t.shape[1])), t_t.mean(axis=0)))


def completion_mmd(s_c, s_s, t_c, t_t, psi_s, psi_t) -> float:
    return dsft_loss(CompletionBlocks(s_c, s_s, t_c, t_t, 1.0), psi_s, psi_t).mmd


class TestMmd2:
    """The linear-kernel MMD part of the completion loss: the squared distance
    between the means of the completed source and target rows."""

    def test_identical_matrices_zero(self):
        rng = np.random.default_rng(50)
        a = rng.normal(size=(8, 5))
        s_s, t_t = rng.normal(size=(8, 2)), rng.normal(size=(8, 3))
        assert completion_mmd(a, s_s, a.copy(), t_t, *mean_filling_maps(s_s, t_t, 5)) == 0.0

    def test_opposite_one_hots(self):
        a = np.tile([1.0, 0.0], (6, 1))
        b = np.tile([0.0, 1.0], (9, 1))
        s_s, t_t = np.ones((6, 1)), np.ones((9, 1))
        got = completion_mmd(a, s_s, b, t_t, *mean_filling_maps(s_s, t_t, 2))
        assert got == pytest.approx(2.0, abs=1e-15)

    def test_matches_scalar_oracle_and_permutation_invariance(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            s_c, s_s, t_c, t_t, psi_s, psi_t = completion_instance(rng)
            got = completion_mmd(s_c, s_s, t_c, t_t, psi_s, psi_t)
            xs_hat = [list(row) + list(ys) + transform_row(psi_t.weights, psi_t.bias, row)
                      for row, ys in zip(s_c, s_s)]
            xt_hat = [list(row) + transform_row(psi_s.weights, psi_s.bias, row) + list(yt)
                      for row, yt in zip(t_c, t_t)]
            assert got == pytest.approx(mmd_linear(xs_hat, xt_hat), abs=1e-10)
            assert got >= 0.0
            perm = rng.permutation(s_c.shape[0])
            assert completion_mmd(s_c[perm], s_s[perm], t_c, t_t, psi_s, psi_t) == (
                pytest.approx(got, abs=1e-12))

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            CompletionBlocks(np.zeros((0, 3)), np.zeros((0, 1)), np.zeros((2, 3)),
                             np.zeros((2, 1)), 1.0)
        with pytest.raises(InvalidInputError):
            CompletionBlocks(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((2, 4)),
                             np.zeros((2, 1)), 1.0)
        with pytest.raises(InvalidInputError, match="target common must be a non-empty 2-D"):
            CompletionBlocks(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros(2),
                             np.zeros((2, 1)), 1.0)


class TestDsftLoss:

    def test_value_matches_scalar_oracle(self):
        rng = np.random.default_rng(60)
        for _ in range(15):
            s_c, s_s, t_c, t_t, psi_s, psi_t = completion_instance(rng)
            gamma = float(rng.uniform(0, 2))
            res = dsft_loss(CompletionBlocks(s_c, s_s, t_c, t_t, gamma), psi_s, psi_t)
            rec_s = sum(
                (p - y) ** 2
                for row, ys in zip(s_c, s_s)
                for p, y in zip(transform_row(psi_s.weights, psi_s.bias, row), ys)
            ) / len(s_c)
            rec_t = sum(
                (p - y) ** 2
                for row, ys in zip(t_c, t_t)
                for p, y in zip(transform_row(psi_t.weights, psi_t.bias, row), ys)
            ) / len(t_c)
            xs_hat = [
                list(row) + list(ys) + transform_row(psi_t.weights, psi_t.bias, row)
                for row, ys in zip(s_c, s_s)
            ]
            xt_hat = [
                list(row) + transform_row(psi_s.weights, psi_s.bias, row) + list(yt)
                for row, yt in zip(t_c, t_t)
            ]
            want = rec_s + rec_t + gamma * mmd_linear(xs_hat, xt_hat)
            assert res.value == pytest.approx(want, abs=1e-9)
            assert res.rec_source == pytest.approx(rec_s, abs=1e-10)
            assert res.rec_target == pytest.approx(rec_t, abs=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(61)
        names = ("psi_s", "psi_t")
        for _ in range(20):
            s_c, s_s, t_c, t_t, psi_s, psi_t = completion_instance(rng)
            gamma = float(rng.uniform(0, 2))
            maps = {"psi_s": psi_s, "psi_t": psi_t}
            blocks = CompletionBlocks(s_c, s_s, t_c, t_t, gamma)
            res = dsft_loss(blocks, psi_s, psi_t)

            def value_fn(vec):
                set_params(maps, names, vec)
                return dsft_loss(blocks, maps["psi_s"], maps["psi_t"]).value

            start = pack_params(maps, names)
            fd = finite_difference(value_fn, start)
            set_params(maps, names, start)
            assert relative_error(pack_grads(res.grads, names), fd) < 1e-4

    def test_exact_maps_zero_reconstruction(self):
        rng = np.random.default_rng(62)
        c, s, t = 3, 2, 2
        m_s = rng.normal(size=(c, s))
        m_t = rng.normal(size=(c, t))
        s_c = rng.normal(size=(6, c))
        t_c = rng.normal(size=(7, c))
        res = dsft_loss(
            CompletionBlocks(s_c, s_c @ m_s, t_c, t_c @ m_t, gamma_mmd=0.0),
            LinearTransform(m_s.copy(), np.zeros(s)),
            LinearTransform(m_t.copy(), np.zeros(t)),
        )
        assert res.value == pytest.approx(0.0, abs=1e-18)
        assert res.rec_source == pytest.approx(0.0, abs=1e-18)

    def test_rejects_negative_gamma_and_bad_rows(self):
        rng = np.random.default_rng(63)
        s_c, s_s, t_c, t_t, _, _ = completion_instance(rng)
        with pytest.raises(InvalidInputError):
            CompletionBlocks(s_c, s_s, t_c, t_t, -0.1)
        with pytest.raises(InvalidInputError):
            CompletionBlocks(s_c, s_s[:-1] if len(s_s) > 1 else np.vstack([s_s, s_s]), t_c, t_t, 0.0)


class _CountingWeights(np.ndarray):
    """Model weights that count the products taken with them, per model name."""

    def __array_finalize__(self, obj):
        self.name = getattr(obj, "name", None)
        self.counts = getattr(obj, "counts", None)

    def __rmatmul__(self, other):
        self.counts[self.name] += 1
        return np.asarray(other) @ self.view(np.ndarray)


class TestHotPath:
    def _counted(self, models):
        counts = {name: 0 for name in models}
        for name, model in models.items():
            weights = model.weights.view(_CountingWeights)
            weights.name, weights.counts = name, counts
            model.weights = weights
        return counts

    def test_each_distinct_forward_runs_once(self):
        rng = np.random.default_rng(70)
        c, s, t = 2, 3, 2
        models = _models(rng, c, s, t)
        terms = _pada(rng.normal(size=(6, c + s)), rng.normal(size=(5, c + t)), c, 0.4)
        want = loss_and_grads(models, terms, wrt=("C", "D", "F"))
        counts = self._counted(models)
        got = loss_and_grads(models, terms)
        # D on source rows and on aligned target rows, C on aligned target rows,
        # and one transform output shared by both aligned forwards
        assert counts == {"D": 2, "C": 1, "F": 1}
        assert got.value == want.value

    def test_gradients_take_one_backward_product_per_forward(self):
        rng = np.random.default_rng(71)
        c, s, t = 2, 3, 2
        models = _models(rng, c, s, t)
        terms = _pada(rng.normal(size=(6, c + s)), rng.normal(size=(5, c + t)), c, 0.4,
                             eta=0.2, teacher_probs=numerics.softmax2(rng.normal(size=(5, 2))))
        counts = self._counted(models)
        loss_and_grads(models, terms, wrt=("F",))
        # three forwards, one transform, and one product back through D and C each
        assert counts == {"D": 3, "C": 2, "F": 1}

    def test_an_untraced_move_skips_the_forward_no_gradient_reads(self):
        rng = np.random.default_rng(71)
        c, s, t = 2, 3, 2
        models = _models(rng, c, s, t)
        terms = _pada(rng.normal(size=(6, c + s)), rng.normal(size=(5, c + t)), c, 0.4)
        counts = self._counted(models)
        loss_and_grads(models, terms, wrt=("F",), values=False)
        # D on source rows reads no F: only the aligned forwards and their products run
        assert counts == {"D": 2, "C": 2, "F": 1}

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflowing_transform_is_rejected(self):
        rng = np.random.default_rng(72)
        c, s, t = 2, 2, 2
        models = _models(rng, c, s, t)
        models["F"] = LinearTransform(np.full((c + t, s), 1e300), np.zeros(s))
        terms = _pada(rng.normal(size=(4, c + s)), np.full((3, c + t), 1e10), c, 0.3)
        with pytest.raises(InvalidInputError, match="finite"):
            loss_and_grads(models, terms, wrt=("F",))

    @pytest.mark.parametrize("build", [lambda a, b: _pan(a, b, 0.1),
                                       lambda a, b: _pada(a, b, 2, 0.1)],
                             ids=["pan", "pada"])
    def test_nan_batch_is_rejected_when_terms_are_built(self, build):
        rng = np.random.default_rng(73)
        good = rng.normal(size=(4, 5))
        bad = good.copy()
        bad[2, 3] = np.nan
        for first, second in ((bad, good), (good, bad)):
            with pytest.raises(InvalidInputError, match="finite"):
                build(first, second)


# --------------------------------------------------------------------------
# Untraced evaluation: only what the gradients read


def _objectives(rng, cells):
    """Every builder's terms on one random draw, with the players its gradients
    reach: one cell's models and rows, or a stack of ``cells`` models whose cells
    hold their seed's rows, the first half from one seed and the rest from another."""
    c, s, t, n = 2, 3, 3, 7
    cell = () if cells == 1 else (cells,)
    seed_of = [0] if cells == 1 else [0] * (cells // 2) + [1] * (cells - cells // 2)

    def head():   # wide weights, so that some rows sit at the probability clamp
        return LinearSoftmaxModel(rng.normal(scale=3.0, size=cell + (c + s, 2)),
                                  rng.normal(size=cell + (2,)))

    def rows(width):
        per_seed = rng.normal(size=(2, n, width))
        return per_seed[0] if cells == 1 else per_seed[seed_of]

    models = {"C": head(), "D": head(), "Df": head(),
              "F": LinearTransform(rng.normal(size=cell + (c + t, s)), rng.normal(size=cell + (s,)))}
    bs, bu, bt = rows(c + s), rows(c + s), rows(c + t)
    lam, eta = 0.4, 0.3
    if cells > 1:
        lam, eta = np.linspace(0.1, 1.0, cells), np.linspace(0.9, 0.2, cells)
    teacher = numerics.softmax2(rng.normal(scale=3.0, size=cell + (n, 2)))
    return models, {
        "pan": (_pan(bs, bu, lam), ("D", "C")),
        "pada": (_pada(bs, bt, c, lam), ("D", "C", "F")),
        "pada_teacher": (_pada(bs, bt, c, lam, teacher_probs=teacher, eta=eta),
                         ("D", "C", "F")),
        "domain_adv": (domain_adv_terms(RawBatch(bs), TransformedBatch(bt, c)), ("Df", "F")),
        "classifier_pair": (classifier_terms(RawBatch(bu), lam), ("C", "D")),
        "aligned_classifier_pair": (classifier_terms(TransformedBatch(bt, c), lam),
                                    ("C", "D", "F")),
        "aligned_classifier_pair_teacher": (
            classifier_terms(TransformedBatch(bt, c), lam, teacher_probs=teacher, eta=eta),
            ("C", "D", "F")),
        "distill": (distillation_terms(teacher, RawBatch(bt)), ("C",)),
        "supervised": (supervised_terms(RawBatch(bs), RawBatch(bu)), ("D",)),
    }


class TestUntracedEvaluation:
    @pytest.mark.parametrize("cells", [1, 4])
    @pytest.mark.parametrize("seed", [80, 81, 82])
    def test_untraced_gradients_equal_traced_ones_bit_for_bit(self, cells, seed):
        models, objectives = _objectives(np.random.default_rng(seed), cells)
        for name, (terms, players) in objectives.items():
            for wrt in [(p,) for p in players] + [players]:
                traced = loss_and_grads(models, terms, wrt=wrt)
                untraced = loss_and_grads(models, terms, wrt=wrt, values=False)
                assert untraced.value is None and untraced.term_values is None
                assert set(untraced.grads) == set(wrt)
                for p in wrt:
                    assert (untraced.grads[p].d_weights.tobytes()
                            == traced.grads[p].d_weights.tobytes()), (name, wrt, p)
                    assert (untraced.grads[p].d_bias.tobytes()
                            == traced.grads[p].d_bias.tobytes()), (name, wrt, p)

    def test_the_stacked_draws_hit_the_clamp(self):
        """The draws above exercise the clamp mask of the Jacobian."""
        models, objectives = _objectives(np.random.default_rng(80), 4)
        p1 = models["C"].classify(objectives["pan"][0][0].right.batch.rows)[..., 1]
        assert ((p1 <= numerics.EPS) | (p1 >= 1.0 - numerics.EPS)).any()

    @pytest.mark.parametrize("cells", [1, 4])
    def test_a_plan_rebound_to_new_rows_equals_terms_built_on_them(self, cells):
        rng = np.random.default_rng(83)
        models, first = _objectives(rng, cells)
        _, second = _objectives(rng, cells)
        for name, (terms, players) in first.items():
            plan = LossPlan(terms)
            loss_and_grads(models, plan, wrt=players)   # resolved on the first rows
            fresh, _ = second[name]
            for term, new in zip(terms, fresh):
                for side, new_side in ((term.left, new.left), (term.right, new.right)):
                    if isinstance(side, ModelOutput):
                        side.batch.rows = new_side.batch.rows
                    elif side is not new_side and isinstance(new_side, ConstTarget):
                        side.columns = new_side.columns
            for values in (True, False):
                got = loss_and_grads(models, plan, wrt=players, values=values)
                want = loss_and_grads(models, fresh, wrt=players, values=values)
                assert np.asarray(got.value).tobytes() == np.asarray(want.value).tobytes()
                for p in players:
                    assert got.grads[p].d_weights.tobytes() == want.grads[p].d_weights.tobytes()
