"""Outside-in layer trace for the qkdattack benchmark.

The tracer wraps module attributes where the caller looks them up (``cli``
and ``keyrate`` bind ``optimize_attack`` and ``find_threshold`` by name, the
optimizer binds ``purified_state`` and ``eve_conditional_state`` by name), and
wraps ``optimizer._Batch.run`` and ``optimizer._Batch.step_once`` on the
class.  Every wrapped call records one span (name, start, end, parent) in
flat in-memory arrays; counters are read off the batch objects and returned
results at the same boundaries.  Nothing is installed until ``install`` is
called, so an untraced run executes the library unmodified.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np

from qkdattack import cli, information, keyrate, optimizer, simulator, states

# (module, attribute, span name) of the layer functions timed without
# counters, at every place a caller the benchmark reaches looks them up.
_TIMED_SITES = [
    (optimizer, "purified_state", "states.purified_state"),
    (optimizer, "eve_conditional_state", "states.conditional"),
    (optimizer, "_renormalize", "optimizer.renormalize"),
    (optimizer, "_probs", "optimizer.probs"),
    (optimizer, "_objective", "optimizer.objective"),
    (optimizer, "_gradient", "optimizer.gradient"),
    (states, "purified_state", "states.purified_state"),
    (states, "partial_trace", "linalg.partial_trace"),
    (information, "eve_conditional_state", "states.conditional"),
    (information, "conditional_probs", "information.conditional_probs"),
    (information, "mutual_info_ae", "information.mutual_info_ae"),
    (simulator, "bob_eve_conditional_state", "states.conditional"),
    (simulator, "joint_distribution", "simulator.joint"),
    (simulator, "empirical_stats", "simulator.stats"),
]

COUNTER_KEYS = (
    "cli.exit_nonzero",
    "optimizer.step.rows",
    "optimizer.step.accepts",
    "optimizer.ascent.iters",
    "optimizer.ascent.cap_hits",
    "optimizer.ascent.restarts",
    "optimizer.ascent.converged",
    "optimizer.ascent.agreeing",
    "keyrate.threshold.probes",
    "keyrate.threshold.reruns",
    "simulator.rounds",
    "simulator.sample.bytes",
)


class Tracer:
    """Spans and counters of one traced run, kept in memory until the end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTER_KEYS, 0)
        self.closed_form_err = 0.0
        self.threshold_dev = 0.0
        self._threshold_restarts: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name`` and return its result."""
        i = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, functools.wraps(getattr(owner, attr))(wrapper))

    def install(self) -> None:
        for module, attr, name in _TIMED_SITES:
            self._patch(module, attr, self._timed(name, getattr(module, attr)))
        self._patch(cli, "optimize_attack", self._wrap_attack(cli.optimize_attack))
        self._patch(keyrate, "optimize_attack", self._wrap_probe(keyrate.optimize_attack))
        self._patch(cli, "find_threshold", self._wrap_threshold(cli.find_threshold))
        self._patch(simulator, "sample_rounds", self._wrap_sample(simulator.sample_rounds))
        self._patch(optimizer._Batch, "run", self._wrap_run(optimizer._Batch.run))
        self._patch(optimizer._Batch, "step_once", self._wrap_step(optimizer._Batch.step_once))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def _note_attack(self, result) -> None:
        if result.protocol.name == "bb84" and result.q <= 0.25:
            err = abs(result.i_ae - keyrate.bb84_closed_form_iae(result.q))
            self.closed_form_err = max(self.closed_form_err, err)

    def _wrap_attack(self, fn):
        def wrapper(protocol, q, config):
            result = self.span("optimizer.attack", fn, protocol, q, config)
            self._note_attack(result)
            return result

        return wrapper

    def _wrap_probe(self, fn):
        # find_threshold re-runs a probe whose rate looks inflated with four
        # times the restarts of the config it was given
        def wrapper(protocol, q, config):
            if self._threshold_restarts is not None and config.restarts > self._threshold_restarts:
                self.counters["keyrate.threshold.reruns"] += 1
            else:
                self.counters["keyrate.threshold.probes"] += 1
            result = self.span("optimizer.attack", fn, protocol, q, config)
            self._note_attack(result)
            return result

        return wrapper

    def _wrap_threshold(self, fn):
        def wrapper(protocol, tolerance, config):
            self._threshold_restarts = config.restarts
            try:
                rep = self.span("keyrate.threshold", fn, protocol, tolerance, config)
            finally:
                self._threshold_restarts = None
            published = rep.references["memoryless"]
            self.threshold_dev = max(self.threshold_dev, abs(rep.threshold_q - published))
            return rep

        return wrapper

    def _wrap_sample(self, fn):
        def wrapper(jd, n, seed):
            out = self.span("simulator.sample", fn, jd, n, seed)
            self.counters["simulator.rounds"] += n
            # computed, not measured: uniform draws (f8), flat indices (i8),
            # four unravelled index arrays (i8) and the structured output
            self.counters["simulator.sample.bytes"] += n * (8 + 8 + 4 * 8 + out.dtype.itemsize)
            return out

        return wrapper

    def _wrap_run(self, run):
        def wrapper(batch, max_iters):
            iters0 = batch.iters
            self.span("optimizer.ascent", run, batch, max_iters)
            c = self.counters
            c["optimizer.ascent.iters"] += batch.iters - iters0
            c["optimizer.ascent.cap_hits"] += int(batch.active.any())
            c["optimizer.ascent.restarts"] += batch.f.size
            c["optimizer.ascent.converged"] += int(np.count_nonzero(batch.converged))
            best = batch.f.max()
            c["optimizer.ascent.agreeing"] += int(np.count_nonzero(batch.f >= best - optimizer._AGREE_TOL))

        return wrapper

    def _wrap_step(self, step_once):
        def wrapper(batch):
            rows = int(np.count_nonzero(batch.active))
            f_before = batch.f.copy()
            self.span("optimizer.step", step_once, batch)
            self.counters["optimizer.step.rows"] += rows
            self.counters["optimizer.step.accepts"] += int(np.count_nonzero(batch.f > f_before))

        return wrapper

    # -- summaries -----------------------------------------------------------

    def _arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def span_table(self) -> dict[str, tuple[int, float, float]]:
        """{name: (calls, total seconds, self seconds)} over closed spans.

        Self time is a span's duration minus the durations of its direct
        children; spans nest on one thread, so children never overlap.
        """
        a = self._arrays()
        n, k = len(a["start"]), len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=n)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        own = np.bincount(a["name_id"], weights=dur - child, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(own[i])) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Dump the raw spans (names, name ids, parents, start, end) as .npz."""
        np.savez(path, names=np.array(self.names), **self._arrays())
