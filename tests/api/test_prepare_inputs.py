"""The single prepare helper (engine preprocessing + encodings) behind
``Session.fit`` / ``Session.predict``: same bytes out as the seven inlined
copies it replaced, and the encoding time lands in ``preprocess_seconds``
on the predict path too."""

import numpy as np
import pytest

from benchmarks.e2e.inputs import SMOKE, bridged_dataset, run_config
from repro.api import Session
from repro.models.encodings import compute_encodings
from repro.tensor import no_grad, precision_scope
from repro.train import planned_forward
from tests.helpers import array_sha256 as _sha


def _blas_fingerprint():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 96)).astype(np.float32)
    b = rng.standard_normal((96, 48)).astype(np.float32)
    return _sha(a @ b)


# sha256 of (untrained full-graph logits, 3-epoch train-loss list, logits
# after that fit) on the bridged 300-node benchmark graph, taken on commit
# 6efde15.  Float32 matmuls round per BLAS kernel, so the digests hold on
# machines whose BLAS matches the one they were taken on.
PARENT_BLAS = "b607a2717714b5662b1389dae1f9a0a7932e91ac28158af6013a4efbe8633855"
PARENT = {
    "torchgt": ("67e62bdb18617de4ef07ce334e20dfdc681a29054f403f8ebd7ffa9d920d8164",
                "7c40ca4a11f58ef51b9a905b9c14445899648d4ae92d0eb3eb6df418badcc9ff",
                "51999c2368842b0023d3fe2281357191a0c43f0fe8a6c392f3b924e17aaaf1d4"),
    "gp-flash": ("53722132e54c88c36eaf11ef5d06dd49bb61aefac79f6ee97ed5f14c6faa2393",
                 "a15bb72536c9f1e5d3e7c07f32147179ff2b16805707647b630a475dc7c90f47",
                 "d6b574c1ca899dc46ad458c561f5925c6946d73c14010ef405718add07967350"),
    "gp-raw": ("0069d1c51f9e78dd7e3de7d9337e0dd48de2494365410ee9a1fa8772179e7971",
               "73013b4e04724b74591a0e924dce55a83144cd55ecfb5998d1768ca895ee1f90",
               "182ba0bf173ebae07f659d7c3c14e69b765cdda916bdddec93ad7e9d69ef049d"),
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


def test_predict_path_counts_encoding_time():
    # gp-raw's own preprocessing is free (0.0 s), so anything on the
    # context's clock after a predict is the encoding time
    s = _session("gp-raw")
    s.predict()
    ctx = s._infer_cache[2]
    assert ctx.preprocess_seconds > 0
    assert s.fit().preprocess_seconds > 0
