"""The benchmark's tracer still finds everything it hooks in ``puhda``.

``perfbench/layers.py`` wraps named functions and methods of the package and
tells the objectives apart by their term lists, so a rename in ``src/`` would
otherwise only show when the benchmark runs. The file is loaded by path and
only read.
"""

import importlib.util
from pathlib import Path

import numpy as np

import puhda.experiment
import puhda.models
import puhda.objectives
import puhda.trainers
from puhda.objectives import pada_terms, pan_terms

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooked():
    return (puhda.trainers._draw, puhda.experiment._write_standard_reports,
            puhda.experiment._write_checkpoint, puhda.trainers.TrainTrace.write,
            puhda.models.LinearSoftmaxModel.logits, puhda.models.LinearTransform.transform,
            puhda.models.loss_and_grads, puhda.objectives.dsft_loss, puhda.trainers.dsft_loss)


def test_every_trace_hook_resolves_and_is_put_back():
    before = _hooked()
    with _layers().Tracer().active():
        during = _hooked()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _hooked()))


def test_objective_of_tells_the_pu_objective_from_the_aligned_one():
    layers = _layers()
    rng = np.random.default_rng(0)
    x_s, x_t = rng.normal(size=(4, 3)), rng.normal(size=(4, 5))
    assert layers.objective_of(pan_terms(x_s, x_s, 0.1)) == "pan"
    assert layers.objective_of(pada_terms(x_s, x_t, 1, 0.1)) == "pada"
