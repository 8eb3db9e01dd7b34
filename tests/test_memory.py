"""Memory bounds of generating and preparing a wide dataset.

NumPy reports its buffers to ``tracemalloc``, so the traced peak of a call is
what the call holds at once, in bytes. The bounds sit a little above what the
code holds now (2.08x and 2.37x, on the sizes below) and well under what it
held when every block was built out of place and the whole target was kept
through standardization (3.29x and 3.35x).
"""

import tracemalloc

from puhda.data import SyntheticSpec, generate_synthetic, save_domain_matrix
from puhda.experiment import build_config, prepare_data

GENERATE_BOUND = 2.3   # peak over the bytes of the two matrices it returns
PREPARE_BOUND = 2.7    # peak over the bytes of the four matrices it keeps


def _nbytes(*matrices) -> int:
    return sum(block.nbytes for dm in matrices
               for block in (dm.common, dm.specific, dm.labels, dm.aux_specific)
               if block is not None)


def _traced_peak(call):
    """``call()``'s result and the most bytes traced at once while it ran,
    over what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_generating_holds_each_block_about_twice():
    # wide enough that the oracle's fixed-size draw is a small share of the peak
    spec = SyntheticSpec(c=16, s=48, t=48, n_source=3000, n_target=10000, seed=3)
    (source, target, _), peak = _traced_peak(lambda: generate_synthetic(spec))
    assert peak <= GENERATE_BOUND * _nbytes(source, target)


def test_preparing_a_saved_dataset_drops_the_whole_target_before_standardizing(tmp_path):
    spec = SyntheticSpec(c=16, s=48, t=48, n_source=1000, n_target=3000, seed=3)
    source, target, _ = generate_synthetic(spec)
    save_domain_matrix(source, tmp_path / "source.csv")
    save_domain_matrix(target, tmp_path / "target.csv")
    schema = {"common": list(target.schema.common),
              "source_specific": list(target.schema.source_specific),
              "target_specific": list(target.schema.target_specific), "label": "label"}
    del source, target
    config = build_config({
        "dataset": {"kind": "csv", "csv": {"source": str(tmp_path / "source.csv"),
                                           "target": str(tmp_path / "target.csv"),
                                           "schema": schema}},
        "methods": ["COM_P"],
    })
    data, peak = _traced_peak(lambda: prepare_data(config))
    kept = _nbytes(data.source, data.train, data.val, data.sealed_test.open())
    assert peak <= PREPARE_BOUND * kept
