"""The serving oracle: a plain in-process ``Session`` on the reference backend.

Every reply carries the ``graph_version`` it was computed at, and the
single closed-loop client makes the order of mutations known, so after
the timed window the oracle replays the same deltas one version at a
time and recomputes each answer at exactly the version stamped on it.
A reply passes only if dtype, shape and bytes are identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import Session

from measure import Tally


@dataclass
class Observation:
    phase: str
    version: int | None        # graph_version stamped on the reply
    nodes: np.ndarray | None   # None = full-graph predict
    logits: np.ndarray


class Oracle:
    def __init__(self, config, dataset, deltas):
        """``dataset`` is at the version the store was written at; ``deltas``
        are the mutations the run acked, in order.  The dataset is mutated."""
        self.session = Session(config, dataset=dataset)
        self.deltas = list(deltas)
        self.applied = 0

    def _advance_to(self, version: int) -> bool:
        while self.session.graph_version < version and self.applied < len(self.deltas):
            self.session.apply_delta(self.deltas[self.applied])
            self.applied += 1
        return self.session.graph_version == version

    def verify(self, observations: list[Observation], tally: Tally) -> tuple[int, int]:
        """Check every subset reply and the first and last full-graph reply.

        Each observation is counted once under its phase: ``ok`` or
        ``mismatched`` when checked, ``ok`` when it is a full-graph reply
        between the first and the last (completed, not recomputed).
        Also asserts the plan mix: at the last version reached, the
        full graph must still qualify for sparse attention.
        Returns ``(matched, checked)``.
        """
        fulls = [o for o in observations if o.nodes is None and o.phase != "warmup"]
        skip = {id(o) for o in fulls[1:-1]}
        matched = checked = 0
        ordered = sorted(observations, key=lambda o: (o.version is None, o.version or 0))
        memo_version, memo = None, {}
        for obs in ordered:
            if id(obs) in skip:
                tally.add(obs.phase)
                continue
            checked += 1
            if obs.version is None or not self._advance_to(obs.version):
                tally.check(obs.phase, False,
                            f"reply stamped version {obs.version}, which the "
                            "acked mutations never produced")
                continue
            if memo_version != obs.version:
                memo_version, memo = obs.version, {}
            key = None if obs.nodes is None else np.asarray(obs.nodes).tobytes()
            if key not in memo:
                memo[key] = self.session.predict(nodes=obs.nodes)
            want = memo[key]
            same = (obs.logits.dtype == want.dtype and obs.logits.shape == want.shape
                    and obs.logits.tobytes() == want.tobytes())
            matched += tally.check(
                obs.phase, same,
                f"logits differ from in-process Session.predict at version {obs.version}")
        graph = self.session.dataset.graph
        tally.check("oracle.plan_mix",
                    self.session.engine.prepare_inference(graph).sparse_ok,
                    "the served graph fell back to dense attention (sparse_ok=False)")
        return matched, checked
