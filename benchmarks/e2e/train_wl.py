"""``train_sparse`` and ``train_flash``: ``Session.fit`` end to end.

One session = set-up (dataset, bridge, a one-epoch warm-up fit) → as many
full ``fit()`` rounds as the time budget allows (at least one) → restart
(checkpoint, fresh ``Session``, full-graph predict that must equal the
trained session's bit for bit).  Epoch times come from the full rounds
only; preprocessing is timed on every fit, the warm-up ones too, because
one sample per round is too few for a steady median.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from repro.api import Session
from repro.attention import collector
from repro.train import Callback

from inputs import Size, bridged_dataset, run_config
from measure import Tally, median, now, percentile

ENGINE = {"train_sparse": "torchgt", "train_flash": "gp-flash"}


class EpochClock(Callback):
    """Wall-clock marks at fit start and after every epoch (train + eval)."""

    def __init__(self):
        self.marks: list[float] = []
        self.reforms = 0

    def on_fit_start(self, record):
        self.marks.append(now())

    def on_epoch_end(self, epoch, record):
        self.marks.append(now())

    def on_reform(self, epoch, record):
        self.reforms += 1


def epochs_for(workload: str, size: Size) -> int:
    return size.sparse_epochs if workload == "train_sparse" else size.flash_epochs


def train_plan_kinds(num_layers: int, epochs: int) -> list[str]:
    """Attention kind of each training iteration, from the kernels' own log.

    Every attention call appends one record to ``repro.attention.collector``;
    an epoch is ``num_layers`` training calls followed by ``num_layers``
    evaluation calls, so the first record of each epoch names the plan
    the engine chose for that iteration.
    """
    per_epoch = 2 * num_layers
    records = collector.records[-per_epoch * epochs:]
    return [records[e * per_epoch].kind for e in range(epochs)]


def fit_round(config, dataset, num_layers: int):
    """One fresh ``Session.fit`` with epoch marks; the unit of training work.

    Returns ``(session, facts)``.
    """
    session = Session(config, dataset=dataset)
    clock = EpochClock()
    collector.clear()
    t0 = now()
    record = session.fit(callbacks=clock)
    wall = now() - t0
    epochs = len(record.train_loss)
    kinds = train_plan_kinds(num_layers, epochs)
    collector.clear()
    marks = np.asarray(clock.marks)
    return session, {
        "wall_s": wall,
        "preprocess_s": float(marks[0] - t0),
        "epoch_ms": (np.diff(marks) * 1e3).tolist(),
        "kinds": kinds,
        "sparse_share": kinds.count("sparse") / epochs,
        "reforms": clock.reforms,
        "loss": list(record.train_loss),
        "digest": hashlib.sha256(
            np.asarray(record.train_loss, dtype=np.float64).tobytes()).hexdigest(),
        "final_test": float(record.final_test),
    }


def check_round(workload: str, rnd: dict, first_digest: str, tally: Tally) -> None:
    loss = rnd["loss"]
    for value in loss:
        tally.add("fit.epoch", "ok" if np.isfinite(value) else "failed")
    tally.check("fit.loss", loss[-1] < loss[0], "training loss did not fall")
    tally.check("fit.digest", rnd["digest"] == first_digest,
                "per-epoch loss list differs between two fits of the same inputs")
    if workload == "train_sparse":
        tally.check("fit.plan_mix", rnd["sparse_share"] >= 0.8,
                    f"sparse share {rnd['sparse_share']:.3f} < 0.8: "
                    "the engine fell back to dense attention")
    else:
        tally.check("fit.plan_mix",
                    rnd["sparse_share"] == 0 and set(rnd["kinds"]) == {"flash"},
                    f"gp-flash ran kinds {sorted(set(rnd['kinds']))}")


def restart(session, config, dataset, tmp: str, tally: Tally) -> float:
    """Checkpoint → fresh Session → first full-graph predict, bit for bit."""
    want = session.predict()
    path = os.path.join(tmp, "trained.npz")
    t0 = now()
    session.save_checkpoint(path)
    fresh = Session(config, dataset=dataset)
    fresh.load_weights(path)
    got = fresh.predict()
    seconds = now() - t0
    tally.check("restart", got.dtype == want.dtype
                and got.tobytes() == want.tobytes(),
                "restored session's logits differ from the trained session's")
    return seconds


def run(workload: str, size: Size, seed: int, seconds: float, tmp: str,
        tally: Tally) -> dict:
    del seed  # training has no request stream: every seed runs the same fit
    engine = ENGINE[workload]
    config = run_config(size, engine, epochs=epochs_for(workload, size))
    num_layers = config.model.num_layers
    budget = seconds / size.sessions
    setups, restarts, rounds, preprocess = [], [], [], []
    for _ in range(size.sessions):
        t0 = now()
        dataset, _ = bridged_dataset(size)
        _, warm = fit_round(run_config(size, engine, epochs=1), dataset, num_layers)
        setups.append(now() - t0)
        preprocess.append(warm["preprocess_s"])

        started = now()
        while True:
            session, rnd = fit_round(config, dataset, num_layers)
            rounds.append(rnd)
            preprocess.append(rnd["preprocess_s"])
            check_round(workload, rnd, rounds[0]["digest"], tally)
            if now() - started + 0.5 * rnd["wall_s"] >= budget:
                break
        restarts.append(restart(session, config, dataset, tmp, tally))

    nodes = dataset.num_nodes
    epoch_ms = [ms for r in rounds for ms in r["epoch_ms"]]
    metrics = {
        "setup_s": median(setups),
        "op_ms_p50": median(epoch_ms),
        "op_ms_p90": percentile(epoch_ms, 90),
        "work_per_s": median(nodes * len(r["epoch_ms"]) / r["wall_s"]
                             for r in rounds),
        "full_graph_ms_p50": median(preprocess) * 1e3,
        "restart_s": median(restarts),
        "quality": rounds[-1]["final_test"],
    }
    aliases = {
        "train_preprocess_s": (metrics["full_graph_ms_p50"] / 1e3, "s"),
        "epoch_ms_p50": (metrics["op_ms_p50"], "ms"),
        "train_nodes_per_s": (metrics["work_per_s"], "nodes/s"),
        "final_test_acc": (metrics["quality"], "fraction"),
    }
    return {"metrics": metrics, "aliases": aliases,
            "samples": {"epochs": len(epoch_ms), "fits": len(rounds),
                        "preprocess": len(preprocess),
                        "restarts": len(restarts), "setups": len(setups)},
            "loss_digest": rounds[0]["digest"],
            "sparse_iter_share": rounds[0]["sparse_share"]}
