"""The single prepare helper (engine preprocessing + encodings) behind
``Session.fit`` / ``Session.predict``: same bytes out as the seven inlined
copies it replaced, and the encoding time lands in ``preprocess_seconds``
on the predict path too."""

import dataclasses

import numpy as np
import pytest

from benchmarks.e2e.inputs import SMOKE, bridged_dataset, run_config
from repro.api import Session
from repro.models import encodings
from repro.train import trainer
from repro.models import build_model
from repro.models.encodings import compute_encodings
from repro.tensor import no_grad, precision_scope
from repro.train import planned_forward, prepare_inputs
from tests.helpers import array_sha256 as _sha
from tests.helpers import count_prepares


def _blas_fingerprint():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 96)).astype(np.float32)
    b = rng.standard_normal((96, 48)).astype(np.float32)
    return _sha(a @ b)


# sha256 of (untrained full-graph logits, 3-epoch train-loss list, logits
# after that fit) on the bridged 300-node benchmark graph.  Re-recorded on
# the child of commit 23edc32, which moved the attention contractions onto
# BLAS GEMMs, GELU's cube onto two multiplies and the embedding backward
# onto np.bincount: arithmetic changed on purpose, so the rounding did
# (gp-flash's bf16 rounding hides it until its post-fit logits).  Float32
# matmuls round per BLAS kernel, so the digests hold on machines whose
# BLAS matches the one they were taken on.
PARENT_BLAS = "b607a2717714b5662b1389dae1f9a0a7932e91ac28158af6013a4efbe8633855"
PARENT = {
    "torchgt": ("c2ac216fcaaf0a96bdff3893da505a7856c36a81c3dced4d83277aeeffa052b8",
                "1db4ad01840f0ba83c11d551c85e0961b0036385402ef40be5befa92ecb1f0b0",
                "3f4392f77a4dd091ee581813badabf499853591ec0a1c9f42611ca615d4fa615"),
    "gp-flash": ("53722132e54c88c36eaf11ef5d06dd49bb61aefac79f6ee97ed5f14c6faa2393",
                 "a15bb72536c9f1e5d3e7c07f32147179ff2b16805707647b630a475dc7c90f47",
                 "638ae37e4e05221c6de2ef08a5024bba1ff118d3a183a3ebba432e2b187d20e6"),
    "gp-raw": ("ed3dd33936bfb9d0ea78962f9ea40a912b84e1b5f934ee6181e934be66eb492e",
               "73013b4e04724b74591a0e924dce55a83144cd55ecfb5998d1768ca895ee1f90",
               "77305b715685815e6daf4bbdcdd316b01fb61fd9ebe603840bf980ee5a737a61"),
}
ENGINES = list(PARENT)


def _session(engine):
    ds, _ = bridged_dataset(SMOKE)
    return Session(run_config(SMOKE, engine=engine, epochs=3), dataset=ds)


@pytest.mark.skipif(_blas_fingerprint() != PARENT_BLAS,
                    reason="float32 BLAS rounds differently from the machine "
                           "the parent-commit digests were taken on")
@pytest.mark.parametrize("engine", ENGINES)
def test_predict_and_fit_bytes_match_parent_commit(engine):
    s = _session(engine)
    untrained = s.predict()
    assert untrained.dtype == np.float32 and untrained.shape == (300, 8)
    record = s.fit()
    got = (_sha(untrained), _sha(record.train_loss, np.float64), _sha(s.predict()))
    assert got == PARENT[engine]


@pytest.mark.parametrize("engine", ENGINES)
def test_predict_equals_the_inlined_recipe(engine):
    """Portable form of the pin above: the two lines the helper replaced."""
    s = _session(engine)
    got = s.predict()
    ds, eng = s.dataset, s.engine
    with precision_scope(eng.precision), no_grad():
        ctx = eng.prepare_inference(ds.graph)
        enc = compute_encodings(ctx.graph, lap_pe_dim=s.config.train.lap_pe_dim)
        inv = ctx.node_permutation_inverse()
        feats = ds.features[inv] if inv is not None else ds.features
        s.model.eval()
        out = planned_forward(s.model, eng, ctx, feats, enc, train=False).data
    want = np.empty_like(out)
    want[inv if inv is not None else slice(None)] = out
    assert got.tobytes() == want.tobytes()


def test_predict_path_counts_encoding_time(monkeypatch):
    # gp-raw's own preprocessing is free (0.0 s), so anything on the
    # context's clock after a predict is the encoding time
    s = _session("gp-raw")
    prepared = count_prepares(s, monkeypatch)
    s.predict()
    (ctx,) = prepared
    assert ctx.preprocess_seconds > 0
    assert s.fit().preprocess_seconds > 0


@pytest.mark.parametrize("model, overrides, reads", [
    ("graphormer", {}, False),
    ("gt", {}, True),
    ("gt", {"lap_pe_dim": 0}, False),
])
def test_only_a_model_that_reads_the_laplacian_pays_for_it(model, overrides,
                                                           reads):
    s = _session("gp-raw")
    ds = s.dataset
    m = build_model(model, ds.features.shape[1], ds.num_classes, **overrides)
    assert m.reads_lap_pe is reads
    _, enc = prepare_inputs(s.engine, m, ds.graph, s.config.train.lap_pe_dim,
                            train=False)
    assert (enc.lap_pe is not None) is reads


@pytest.mark.parametrize("engine, model, reads", [
    ("gp-flash", "graphormer-slim", False),  # flash plans carry no bias
    ("gp-raw", "gt", False),                 # GT has no attention bias
    ("torchgt", "graphormer-slim", True),
    ("gp-raw", "graphormer-slim", True),
])
def test_spd_is_computed_only_where_it_is_read(monkeypatch, engine, model, reads):
    """A fit and a predict run the S × S BFS only for a bias that reads it,
    and skipping it moves no bit of the losses or logits."""
    ds, _ = bridged_dataset(SMOKE)
    config = run_config(SMOKE, engine=engine, epochs=2)
    config = dataclasses.replace(
        config, model=dataclasses.replace(config.model, name=model))

    def fit_and_predict():
        s = Session(config, dataset=ds)
        record = s.fit()
        return record.train_loss, s.predict().tobytes()

    spd_calls = []
    real_spd = encodings.truncated_spd_matrix

    def counting_spd(g, max_dist):
        spd_calls.append(g.num_nodes)
        return real_spd(g, max_dist)

    monkeypatch.setattr(encodings, "truncated_spd_matrix", counting_spd)
    got = fit_and_predict()
    assert bool(spd_calls) is reads
    if reads:
        return
    real_encodings = trainer.compute_encodings
    monkeypatch.setattr(trainer, "compute_encodings",
                        lambda g, **kw: real_encodings(g, **{**kw, "with_spd": True}))
    want = fit_and_predict()
    assert spd_calls  # the forced run did compute it
    assert got == want
