"""Span tracer for the benchmark's traced run (``--trace 1``).

The program is not instrumented for this; instead the traced run wraps
the public entry points of each ``repro`` layer from the benchmark's own
files (:func:`install`) and removes the wrappers afterwards.  Every
wrapped call becomes a span with a layer-qualified name such as
``nn.conv_fwd`` or ``store.save``.  A span's *self time* is its duration
minus the time its child spans cover, so the self times of all spans on
one thread never double count, and the time of an operation that no span
covers is reported as an explicit unattributed residual.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


#: ``repro.obs`` counters the traced run reads, as deltas over the time
#: the tracer is recording.
PROGRAM_COUNTERS = ("cache/hits", "cache/misses", "nn/conv_dispatches",
                    "serve/rejected")


def _read_counters() -> Dict[str, int]:
    from repro.obs import counter
    return {name: counter(name).value for name in PROGRAM_COUNTERS}


class Tracer:
    """In-memory span accumulator, thread-aware, with per-name totals."""

    def __init__(self) -> None:
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Inclusive time of spans opened with an empty stack, per thread.
        self.top_s: Dict[int, float] = defaultdict(float)
        #: Spans record only while True, i.e. inside measured operations.
        self.active = False
        #: Program counter deltas accumulated while recording.
        self.program: Dict[str, int] = dict.fromkeys(PROGRAM_COUNTERS, 0)
        self._started: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def start(self) -> None:
        """Begin recording spans, counts and program counter deltas."""
        self._started = _read_counters()
        self.active = True

    def stop(self) -> None:
        self.active = False
        for name, value in _read_counters().items():
            self.program[name] += value - self._started[name]

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; returns its result."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        frame = [0.0]                      # child time covered so far
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            with self._lock:
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.top_s[threading.get_ident()] += dur

    def count(self, name: str, amount: float) -> None:
        if not self.active:
            return
        with self._lock:
            self.counts[name] += amount

    def layer_self_s(self) -> Dict[str, float]:
        """Self time summed per layer (the name's prefix before the dot)."""
        layers: Dict[str, float] = defaultdict(float)
        for name, value in self.self_s.items():
            layers[name.split(".", 1)[0]] += value
        return dict(layers)

    def top_level_s(self, thread_ids) -> float:
        """Inclusive time of outermost spans on the given threads."""
        return sum(self.top_s.get(t, 0.0) for t in thread_ids)


def _nbytes(*arrays) -> int:
    return sum(int(a.nbytes) for a in arrays if isinstance(a, np.ndarray))


class _Patches:
    """Attribute replacements that :meth:`undo` puts back in reverse."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object, bool]] = []

    def set(self, owner, attr: str, value) -> None:
        had_own = attr in getattr(owner, "__dict__", {})
        self._saved.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, original, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self.set(owner, attr, wrapper)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original, had_own = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def install(tracer: Tracer) -> _Patches:
    """Wrap each layer's public entry points; returns the undo handle.

    Layers and their spans:

    * ``nn`` — the active kernel backend's conv forward / input-gradient /
      weight-gradient and pool calls, and every optimizer ``step``;
    * ``models`` — ``ModelZoo.classifier``/``autoencoder`` (restore or
      fit) and the fit itself (``models.fit``);
    * ``store`` — ``DiskCache.save``/``load``/``load_meta``;
    * ``attacks`` — ``Attack.attack`` and ``EAD.attack_both``;
    * ``defenses`` — ``MagNet.calibrate``, ``decide``/``decide_batch``
      and their detect and reform stages;
    * ``evaluation`` — attack-seed selection and defense breakdowns;
    * ``datasets`` — split generation.

    Experiments are timed by the workload itself (``experiments.run``).
    """
    from repro.attacks.base import Attack
    from repro.attacks.ead import EAD
    from repro.defenses.magnet import MagNet
    from repro.experiments import context, sweeps
    from repro.models import zoo
    from repro.nn import optim
    from repro.nn.backend import get_backend, get_default_backend_name
    from repro.obs import counter
    from repro.utils.cache import DiskCache

    patches = _Patches()
    backend = get_backend(get_default_backend_name())

    def conv_fwd_bytes(result, x, weight, *args, **kwargs):
        tracer.count("nn.conv_calls", 1)
        tracer.count("nn.conv_bytes", _nbytes(x, weight, result[0]))

    def conv_bwd_input_bytes(gx, ctx, g):
        n, co, ci, kh, kw, ho, wo = ctx["shape"]
        tracer.count("nn.conv_calls", 1)
        tracer.count("nn.conv_bytes",
                     _nbytes(g, gx) + co * ci * kh * kw * g.itemsize)

    def conv_bwd_weight_bytes(gw, ctx, g):
        n, c, hp, wp = ctx["padded_shape"]
        tracer.count("nn.conv_calls", 1)
        tracer.count("nn.conv_bytes",
                     _nbytes(g, gw) + n * c * hp * wp * g.itemsize)

    patches.wrap(tracer, backend, "conv2d_forward", "nn.conv_fwd",
                 conv_fwd_bytes)
    patches.wrap(tracer, backend, "conv2d_backward_input",
                 "nn.conv_bwd_input", conv_bwd_input_bytes)
    patches.wrap(tracer, backend, "conv2d_backward_weight",
                 "nn.conv_bwd_weight", conv_bwd_weight_bytes)
    for attr in ("max_pool2d_forward", "avg_pool2d_forward"):
        patches.wrap(tracer, backend, attr, "nn.pool_fwd")
    for attr in ("max_pool2d_backward", "avg_pool2d_backward"):
        patches.wrap(tracer, backend, attr, "nn.pool_bwd")
    for cls in (optim.SGD, optim.Adam):
        patches.wrap(tracer, cls, "step", "nn.optim_step")

    patches.wrap(tracer, zoo.ModelZoo, "classifier", "models.get")
    patches.wrap(tracer, zoo.ModelZoo, "autoencoder", "models.get")
    patches.wrap(tracer, zoo, "train_classifier", "models.fit")
    patches.wrap(tracer, zoo, "train_autoencoder", "models.fit")

    def save(self, *args, **kwargs):
        before = self.stats.bytes_written
        result = tracer.call("store.save", original_save, self, *args,
                             **kwargs)
        tracer.count("store.bytes_written", self.stats.bytes_written - before)
        return result

    original_save = DiskCache.save
    patches.set(DiskCache, "save", functools.wraps(original_save)(save))
    patches.wrap(tracer, DiskCache, "load", "store.load")
    patches.wrap(tracer, DiskCache, "load_meta", "store.load")

    lane_iterations = counter("attack/iterations")
    dispatches = counter("attack/dispatches")

    def attack_entry(original):
        @functools.wraps(original)
        def wrapper(self, x0, labels):
            iters0, disp0 = lane_iterations.value, dispatches.value
            result = tracer.call("attacks.run", original, self, x0, labels)
            success = (result["en"] if isinstance(result, dict)
                       else result).success
            tracer.count("attacks.lanes", len(success))
            tracer.count("attacks.successes", int(success.sum()))
            tracer.count("attacks.lane_iterations",
                         lane_iterations.value - iters0)
            tracer.count("attacks.dispatches", dispatches.value - disp0)
            tracer.count("attacks.lane_slots", len(success)
                         * getattr(self, "binary_search_steps", 1)
                         * getattr(self, "max_iterations", 1))
            return result
        return wrapper

    patches.set(Attack, "attack", attack_entry(Attack.attack))
    patches.set(EAD, "attack_both", attack_entry(EAD.attack_both))

    instrumented = set()
    deciding = threading.local()

    def count_classifier_rows(classifier) -> None:
        # Rows through the classifier inside a MagNet decision: the raw and
        # reformed passes plus one pair per JSD detector temperature.  The
        # same classifier object also serves attacks and calibration, so
        # only rows seen while a decision is open count.
        if id(classifier) in instrumented:
            return
        instrumented.add(id(classifier))
        forward = classifier.forward

        def counted(x, *args, **kwargs):
            if getattr(deciding, "depth", 0):
                tracer.count("defenses.classifier_rows", len(x.data))
            return forward(x, *args, **kwargs)

        patches.set(classifier, "forward", counted)

    def decide_entry(original):
        @functools.wraps(original)
        def wrapper(self, x):
            count_classifier_rows(self.classifier)
            tracer.count("defenses.examples", len(x))
            deciding.depth = getattr(deciding, "depth", 0) + 1
            try:
                return tracer.call("defenses.decide", original, self, x)
            finally:
                deciding.depth -= 1
        return wrapper

    patches.wrap(tracer, MagNet, "calibrate", "defenses.calibrate")
    patches.set(MagNet, "decide", decide_entry(MagNet.decide))
    patches.set(MagNet, "decide_batch", decide_entry(MagNet.decide_batch))
    patches.wrap(tracer, MagNet, "detector_flags", "defenses.detect")
    patches.wrap(tracer, MagNet, "detector_scores", "defenses.detect")
    patches.wrap(tracer, MagNet, "reform", "defenses.reform")

    patches.wrap(tracer, context, "select_attack_seeds",
                 "evaluation.seeds")
    patches.wrap(tracer, sweeps, "defense_breakdown", "evaluation.breakdown")
    patches.wrap(tracer, context, "load_digit_splits", "datasets.generate")
    patches.wrap(tracer, context, "load_object_splits", "datasets.generate")
    return patches
