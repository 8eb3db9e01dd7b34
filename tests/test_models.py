import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from puhda import numerics
from puhda.errors import ConfigurationError, InvalidInputError
from puhda.models import (
    ConstTarget,
    GradientBundle,
    KLTerm,
    LinearSoftmaxModel,
    LinearTransform,
    ModelOutput,
    RawBatch,
    TransformedBatch,
    frozen_teacher,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
)
from puhda.objectives import CompletionBlocks, dsft_loss

from _oracles import (
    classify_row,
    finite_difference,
    kl_pair,
    pack_grads,
    pack_params,
    relative_error,
    set_params,
    transform_row,
)


class TestLinearSoftmaxModel:
    def test_classify_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        model = LinearSoftmaxModel(rng.normal(size=(3, 2)), rng.normal(size=2))
        for _ in range(50):
            x = rng.normal(size=3)
            assert model.classify(x) == pytest.approx(
                classify_row(model.weights, model.bias, x), abs=1e-12
            )

    def test_batch_equals_rowwise(self):
        rng = np.random.default_rng(2)
        model = LinearSoftmaxModel(rng.normal(size=(4, 2)), rng.normal(size=2))
        xs = rng.normal(size=(17, 4))
        batch = model.classify(xs)
        rows = np.stack([model.classify(x) for x in xs])
        # batch and single-row paths hit different BLAS kernels, so compare
        # to float indistinguishability rather than bit equality
        np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=1e-14)

    def test_monotone_in_logit_gap(self):
        # raising the positive-class weight raises p1 on a positive input
        model = LinearSoftmaxModel(np.array([[0.0, 0.5]]), np.zeros(2))
        p_low = model.classify(np.array([1.0]))[1]
        model.weights[0, 1] = 2.0
        p_high = model.classify(np.array([1.0]))[1]
        assert p_high > p_low

    def test_initialize_bounds_and_determinism(self):
        d = 9
        a = LinearSoftmaxModel.initialize(d, numerics.make_rng(5))
        b = LinearSoftmaxModel.initialize(d, numerics.make_rng(5))
        assert np.array_equal(a.weights, b.weights)
        r = 1.0 / np.sqrt(d)
        assert np.all(np.abs(a.weights) <= r)
        assert np.array_equal(a.bias, np.zeros(2))

    def test_dimension_mismatch(self):
        model = LinearSoftmaxModel.initialize(3, numerics.make_rng(0))
        with pytest.raises(InvalidInputError):
            model.classify(np.ones(4))

    def test_rejects_non_finite_update(self):
        model = LinearSoftmaxModel.initialize(2, numerics.make_rng(0))
        bad = GradientBundle(np.full((2, 2), np.inf), np.zeros(2))
        with pytest.raises(InvalidInputError):
            model.apply_step(bad, 1.0)


class TestLinearTransform:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        t = LinearTransform(rng.normal(size=(4, 3)), rng.normal(size=3))
        for _ in range(30):
            x = rng.normal(size=4)
            assert t.transform(x) == pytest.approx(
                transform_row(t.weights, t.bias, x), abs=1e-12
            )

    def test_initialize_shapes(self):
        t = LinearTransform.initialize(5, 2, numerics.make_rng(1))
        assert t.weights.shape == (5, 2)
        assert np.array_equal(t.bias, np.zeros(2))
        r = 1.0 / np.sqrt(5)
        assert np.all(np.abs(t.weights) <= r)


def _random_setup(rng):
    """Models plus a term list shaped like the adversarial objectives."""
    c = int(rng.integers(1, 4))
    s = int(rng.integers(1, 4))
    t = int(rng.integers(1, 4))
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    models = {
        "C": LinearSoftmaxModel(rng.normal(size=(c + s, 2)), rng.normal(size=2)),
        "D": LinearSoftmaxModel(rng.normal(size=(c + s, 2)), rng.normal(size=2)),
        "F": LinearTransform(rng.normal(size=(c + t, s)), rng.normal(size=s)),
    }
    src = RawBatch(rng.normal(size=(m, c + s)))
    traw = rng.normal(size=(n, c + t))
    tgt = TransformedBatch(traw, c)
    teacher = ConstTarget(numerics.softmax2(rng.normal(size=(n, 2))))
    lam = float(rng.uniform(0.05, 1.0))
    eta = float(rng.uniform(0.05, 1.0))
    terms = [
        KLTerm(-1.0 / m, ConstTarget(numerics.P1), ModelOutput("D", src), name="pos"),
        KLTerm(-1.0 / n, ConstTarget(numerics.P0), ModelOutput("D", tgt), name="unl"),
        KLTerm(lam / n, ModelOutput("D", tgt), ModelOutput("C", tgt), name="pair"),
        KLTerm(-lam / n, ModelOutput("D", tgt), ModelOutput("C", tgt, swapped=True), name="pair_swap"),
        KLTerm(eta / n, teacher, ModelOutput("C", tgt), name="soft"),
        KLTerm(-eta / n, teacher, ModelOutput("C", tgt, swapped=True), name="soft_swap"),
    ]
    return models, terms


class TestLossAndGrads:
    def test_value_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            models, terms = _random_setup(rng)
            got = loss_and_grads(models, terms).value
            want = 0.0
            for term in terms:
                rows_left = _oracle_side(models, term.left)
                rows_right = _oracle_side(models, term.right)
                if len(rows_left) == 1 and len(rows_right) > 1:
                    rows_left = rows_left * len(rows_right)
                want += term.weight * sum(
                    kl_pair(a, b) for a, b in zip(rows_left, rows_right)
                )
            assert got == pytest.approx(want, abs=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        names = ("C", "D", "F")
        for _ in range(30):
            models, terms = _random_setup(rng)
            res = loss_and_grads(models, terms, wrt=names)
            analytic = pack_grads(res.grads, names)

            def value_fn(vec):
                set_params(models, names, vec)
                return loss_and_grads(models, terms).value

            start = pack_params(models, names)
            fd = finite_difference(value_fn, start)
            set_params(models, names, start)
            assert relative_error(analytic, fd) < 1e-4

    def test_cross_entropy_gradient_closed_form(self):
        # for kl2(onehot, D(x)) the logit gradient is probs - onehot
        rng = np.random.default_rng(4)
        model = LinearSoftmaxModel(rng.normal(size=(3, 2)), rng.normal(size=2))
        x = rng.normal(size=(6, 3))
        term = KLTerm(1.0, ConstTarget(numerics.P1), ModelOutput("D", RawBatch(x)))
        res = loss_and_grads({"D": model}, [term], wrt=("D",))
        probs = model.classify(x)
        dz = probs - numerics.P1
        assert res.grads["D"].d_weights == pytest.approx(x.T @ dz, abs=1e-12)
        assert res.grads["D"].d_bias == pytest.approx(dz.sum(axis=0), abs=1e-12)

    def test_descent_step_reduces_loss(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            models, terms = _random_setup(rng)
            for name in ("C", "D", "F"):
                res = loss_and_grads(models, terms, wrt=(name,))
                norm = float(
                    np.linalg.norm(res.grads[name].d_weights)
                    + np.linalg.norm(res.grads[name].d_bias)
                )
                if norm < 1e-12:
                    continue
                before = res.value
                lr = 1e-3
                ok = False
                for _ in range(40):
                    trial = {k: copy.copy(m) for k, m in models.items()}
                    trial[name].apply_step(res.grads[name], -lr)
                    after = loss_and_grads(trial, _rebind(terms)).value
                    if after <= before + 1e-15:
                        ok = True
                        break
                    lr /= 2.0
                assert ok, f"no descent for {name}"

    def test_zero_weight_terms_change_nothing(self):
        rng = np.random.default_rng(44)
        models, terms = _random_setup(rng)
        core = terms[:4]
        padded = core + [
            KLTerm(0.0, terms[4].left, terms[4].right),
            KLTerm(-0.0, terms[5].left, terms[5].right),
        ]
        names = ("C", "D", "F")
        a = loss_and_grads(models, core, wrt=names)
        b = loss_and_grads(models, padded, wrt=names)
        assert a.value == b.value
        for nm in names:
            assert np.array_equal(a.grads[nm].d_weights, b.grads[nm].d_weights)
            assert np.array_equal(a.grads[nm].d_bias, b.grads[nm].d_bias)

    def test_unbound_model_is_configuration_error(self):
        models, terms = _random_setup(np.random.default_rng(0))
        del models["F"]
        with pytest.raises(ConfigurationError):
            loss_and_grads(models, terms)
        with pytest.raises(ConfigurationError):
            loss_and_grads(models, [], wrt=("Q",))


def _rebind(terms):
    # terms are frozen and reference models by name, so they can be reused as-is
    return terms


def _oracle_side(models, side):
    """Scalar-oracle forward of one term side: list of probability pairs."""
    if isinstance(side, ConstTarget):
        arr = np.atleast_2d(side.probs)
        return [tuple(row) for row in arr]
    model = models[side.model]
    batch = side.batch
    if isinstance(batch, TransformedBatch):
        t = models[batch.transform]
        rows = []
        for raw in batch.rows:
            mapped = transform_row(t.weights, t.bias, raw)
            rows.append(list(raw[:batch.n_common]) + mapped)
    else:
        rows = [list(r) for r in batch.rows]
    out = []
    for row in rows:
        pair = classify_row(model.weights, model.bias, row)
        out.append((pair[1], pair[0]) if side.swapped else pair)
    return out


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        models = {
            "C": LinearSoftmaxModel(rng.normal(size=(5, 2)), rng.normal(size=2)),
            # a transform with two outputs has a head's shape; its slot name decides
            "F": LinearTransform(rng.normal(size=(6, 2)), rng.normal(size=2)),
            "psi_t": LinearTransform(rng.normal(size=(3, 4)), rng.normal(size=4)),
        }
        path = tmp_path / "ckpt" / "seed-3.json"
        save_checkpoint(path, "PADA", models)
        method, loaded = load_checkpoint(path)
        assert method == "PADA"
        assert set(loaded) == set(models)
        assert isinstance(loaded["C"], LinearSoftmaxModel)
        assert isinstance(loaded["F"], LinearTransform)
        assert isinstance(loaded["psi_t"], LinearTransform)
        for nm in models:
            assert np.array_equal(loaded[nm].weights, models[nm].weights)
            assert np.array_equal(loaded[nm].bias, models[nm].bias)

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, a=np.ones(3))
        with pytest.raises(InvalidInputError, match=re.escape(str(path))):
            load_checkpoint(path)

    @pytest.mark.parametrize("doc", [
        {"method": "PADA"},
        {"method": "PADA", "models": {"C": {"weights": [[1.0, 2.0]]}}},
        {"method": "PADA", "models": [1, 2]},
        [1, 2, 3],
    ])
    def test_rejects_json_that_is_not_a_checkpoint(self, tmp_path, doc):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match="not a model checkpoint"):
            load_checkpoint(path)

    def test_missing_file_is_an_input_error_naming_it(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}: cannot read")):
            load_checkpoint(path)

    def test_rejects_an_unknown_slot_name(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, "PADA", {"G": LinearSoftmaxModel(np.ones((3, 2)), np.zeros(2))})
        with pytest.raises(InvalidInputError, match="unknown model slot 'G'"):
            load_checkpoint(path)

    def test_rejects_a_head_of_the_wrong_shape(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, "PADA", {"C": LinearTransform(np.ones((3, 4)), np.zeros(4))})
        with pytest.raises(InvalidInputError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_rejects_a_stacked_model(self, tmp_path):
        path = tmp_path / "ckpt.json"
        stack = LinearSoftmaxModel(np.ones((3, 4, 2)), np.zeros((3, 2)))
        save_checkpoint(path, "PADA", {"C": stack})
        with pytest.raises(InvalidInputError, match=re.escape(
                f"{path}: slot 'C': weights must be one model's 2-D matrix, got shape (3, 4, 2)")):
            load_checkpoint(path)


def test_only_the_models_module_reads_model_parameters():
    src = Path(__file__).resolve().parents[1] / "src" / "puhda"
    readers = sorted(name for name in ("trainers.py", "experiment.py", "metrics.py",
                                       "cli.py", "data.py", "objectives.py")
                     if re.search(r"\.(weights|bias)\b", (src / name).read_text()))
    assert readers == []


def _head(d):
    return LinearSoftmaxModel(np.ones((d, 2)), np.zeros(2))


def _map(d_in, d_out):
    return LinearTransform(np.ones((d_in, d_out)), np.zeros(d_out))


# Each feeds an affine map rows of a width it does not expect.
_WIDTH_MISMATCHES = {
    "logits": lambda: _head(3).logits(np.ones((2, 4))),
    "transform": lambda: _map(3, 2).transform(np.ones((2, 4))),
    "align": lambda: _map(4, 2).align(np.ones((2, 5)), 2),
    "loss_forward": lambda: loss_and_grads(
        {"D": _head(3)}, [KLTerm(1.0, ConstTarget(numerics.P1),
                                 ModelOutput("D", RawBatch(np.ones((2, 4)))))]),
    "frozen_teacher": lambda: frozen_teacher({"C": _head(3)}, 2, np.ones((2, 5))),
    "dsft_loss": lambda: dsft_loss(
        CompletionBlocks(np.ones((2, 2)), np.ones((2, 1)), np.ones((3, 2)), np.ones((3, 1)), 1.0),
        _map(3, 1), _map(3, 1)),
}


@pytest.mark.parametrize("call", _WIDTH_MISMATCHES.values(), ids=_WIDTH_MISMATCHES.keys())
def test_every_affine_map_reports_a_width_mismatch_in_one_message(call):
    with pytest.raises(InvalidInputError, match="inputs have"):
        call()
