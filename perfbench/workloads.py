"""The four benchmark workloads, driven through the program's public API.

Every workload builds its state in a fresh store under the run's work
directory (never the repository's tracked ``.repro_cache/``) and then
runs a fixed sequence of whole operations:

* ``train`` — cold ``ModelZoo`` fits of a fixed round of models;
* ``craft`` — EAD and C&W cells crafted through ``ExperimentContext``
  into an empty store, each scored by a trained default MagNet;
* ``evaluate`` — experiments re-run against a store that set-up filled,
  with contexts cleared before each one;
* ``serve`` — open-loop Poisson arrivals and closed-loop capacity bursts
  into ``InferenceService`` serving the default digits MagNet.

Offline operations fall in two classes: ``light`` (thin models, C&W
cells, clean-accuracy tables) and ``heavy`` (the width-16 AE and the
classifiers, EAD cells, ASR tables).  The inputs come from the workload
seed: each set-up of a run uses one of ``VARIANTS`` recorded input sets
(``seed``, ``seed + 1``, ... modulo ``VARIANTS``), so every output can be
checked against ``reference.json``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.datasets import load_digit_splits, load_object_splits
from repro.defenses.detectors import ReconstructionDetector
from repro.defenses.magnet import MagNet
from repro.defenses.reformer import Reformer
from repro.experiments.config import SMOKE
from repro.experiments.context import ExperimentContext
from repro.experiments.registry import clear_contexts, run_experiment
from repro.models.zoo import AutoencoderSpec, ClassifierSpec, ModelZoo
from repro.obs import gauge
from repro.serving import InferenceService, ServingConfig
from repro.serving.batcher import QueueFullError
from repro.utils.cache import DiskCache

#: Number of recorded input sets; the workload seed selects one.
VARIANTS = 8


class NullTracer:
    """Stands in for :class:`tracer.Tracer` in untraced runs."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass


@dataclasses.dataclass
class Op:
    """One timed operation of an offline workload."""

    kind: str        # "light" | "heavy"
    key: str         # what the operation does, the same in every round
    wall_s: float
    cpu_s: float
    items: int       # work units: samples, seed images or experiments


def timed(tracer, kind: str, key: str, items: int, fn, *args):
    """Run ``fn(*args)`` as one operation; returns ``(Op, result)``.

    The tracer records only inside operations, so the spans it sums are
    covered by the operation wall times they are compared against.
    """
    gc.collect()
    c0, t0 = time.process_time(), time.perf_counter()
    tracer.start()
    try:
        result = fn(*args)
    finally:
        tracer.stop()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return Op(kind, key, wall, cpu, items), result


def jsonable(obj):
    """Plain-JSON form of report data (numpy scalars and arrays included)."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def compare(actual, expected, rtol: float, path: str = "") -> List[str]:
    """Mismatches between two JSON trees; floats within ``rtol``."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ"]
        return [m for k in expected
                for m in compare(actual[k], expected[k], rtol, f"{path}/{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in compare(a, e, rtol, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        if np.isnan(expected) and np.isnan(actual):
            return []
        if abs(actual - expected) <= rtol * abs(expected):
            return []
        return [f"{path}: {actual!r} != {expected!r} (rtol {rtol:g})"]
    if actual != expected or type(actual) is not type(expected):
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def share(n: int, part: int, parts: int) -> int:
    """How many of ``n`` units part ``part`` of ``parts`` runs."""
    return round((part + 1) * n / parts) - round(part * n / parts)


def _bits(mask: np.ndarray) -> str:
    return "".join("1" if v else "0" for v in mask)


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
class Train:
    """Cold ``ModelZoo`` fits: weight gradients, the optimizer, store writes.

    Each round fits every model once into an empty store, so every fit
    misses.  Light: the width-3 digits AE-I/AE-II and objects AE.
    Heavy: digits AE-I at width 16 and both classifiers.
    """

    name = "train"
    rounds_at_10s = 6              # a round takes about 1.8 s
    rtol = 1e-6                   # final training loss, float64 mean
    sizes = (256, 64, 64)
    epochs = 1
    round = (
        ("light", "digits", "deep", 3),
        ("light", "digits", "shallow", 3),
        ("light", "objects", "deep", 3),
        ("heavy", "digits", "deep", 16),
        ("heavy", "digits", "classifier", 0),
        ("heavy", "objects", "classifier", 0),
    )

    def config(self):
        return {"sizes": self.sizes, "epochs": self.epochs,
                "round": self.round}

    def setup(self, variant: int, workdir: Path):
        t0 = time.perf_counter()
        splits = {
            "digits": load_digit_splits(*self.sizes, seed=variant),
            "objects": load_object_splits(*self.sizes, seed=variant),
        }
        generate_s = time.perf_counter() - t0
        return {"splits": splits, "variant": variant,
                "generate_s": generate_s}

    def _spec(self, dataset, kind, width, variant):
        if kind == "classifier":
            return ClassifierSpec(dataset=dataset, seed=variant,
                                  epochs=self.epochs)
        return AutoencoderSpec(dataset=dataset, kind=kind, width=width,
                               seed=variant, epochs=self.epochs)

    def run_round(self, state, workdir: Path, tracer) -> Tuple[List[Op], Dict]:
        cache = DiskCache(workdir)
        zoos = {ds: ModelZoo(s, cache=cache)
                for ds, s in state["splits"].items()}
        ops, losses = [], {}
        for kind, dataset, model, width in self.round:
            spec = self._spec(dataset, model, width, state["variant"])
            zoo = zoos[dataset]
            fit = zoo.classifier if model == "classifier" else zoo.autoencoder
            key = f"{dataset}/{model}/{width}"
            op, _ = timed(tracer, kind, key, self.sizes[0] * self.epochs,
                          fit, spec)
            ops.append(op)
            losses[key] = float(zoo.model_meta(spec)["train_loss"])
        return ops, losses

    def close(self, state) -> None:
        pass


# ----------------------------------------------------------------------
# the MagNet that craft scores against
# ----------------------------------------------------------------------
#: Autoencoder training for :func:`trained_magnet`.  At batch 16, twenty
#: epochs of 256 samples give AE-I a reformer that keeps the classifier's
#: clean accuracy; the profile's batch-64 AEs need ten times the samples.
MAGNET_AE = {"width": 3, "epochs": 20, "batch_size": 16}


def trained_magnet(ctx: ExperimentContext) -> MagNet:
    """The default digits MagNet around ``ctx``'s classifier.

    Built like ``build_magnet(..., "default")``: an L1 reconstruction
    detector on AE-I, an L2 one on AE-II, AE-I as the reformer, and
    thresholds calibrated on the clean validation split, but with the
    autoencoders trained per :data:`MAGNET_AE`, so that set-up stays
    short and the defense still works.
    """
    specs = [AutoencoderSpec(dataset="digits", kind=kind, seed=ctx.seed,
                             **MAGNET_AE) for kind in ("deep", "shallow")]
    deep, shallow = (ctx.zoo.autoencoder(spec) for spec in specs)
    magnet = MagNet(ctx.classifier,
                    [ReconstructionDetector(deep, norm=1),
                     ReconstructionDetector(shallow, norm=2)],
                    Reformer(deep), name="digits/default")
    magnet.calibrate(ctx.splits.val.x,
                     fpr_total=ctx.profile.fpr_total("digits"))
    return magnet


# ----------------------------------------------------------------------
# craft
# ----------------------------------------------------------------------
CRAFT_PROFILE = dataclasses.replace(
    SMOKE, name="perfbench-craft",
    digits_sizes=(256, 64, 128), digits_attack=8,
    max_iterations=40, binary_search_steps=2, classifier_epochs=6)


class Craft:
    """EAD (both rules) and C&W cells crafted into an empty store.

    Runs the input-gradient path with frozen weights, pool backward and
    lane masking; bypasses weight gradients and store reads.  Light: C&W
    cells.  Heavy: EAD cells.
    """

    name = "craft"
    rounds_at_10s = 4              # a round takes about 2.5 s
    rtol = 1e-4                   # mean L1/L2 distortion and ASR
    betas = (1e-2, 1e-1)
    kappas = (0.0, 25.0)

    def __init__(self, profile=CRAFT_PROFILE):
        self.profile = profile

    def config(self):
        return {"profile": self.profile.config(), "betas": self.betas,
                "kappas": self.kappas, "magnet_ae": MAGNET_AE}

    def setup(self, variant: int, workdir: Path):
        ctx = ExperimentContext("digits", self.profile,
                                cache=DiskCache(workdir), seed=variant)
        t0 = time.perf_counter()
        ctx.splits
        generate_s = time.perf_counter() - t0
        magnet = trained_magnet(ctx)            # trains clf + AE-I/AE-II
        ctx.attack_seeds()
        return {"ctx": ctx, "magnet": magnet, "generate_s": generate_s}

    def run_round(self, state, workdir: Path, tracer) -> Tuple[List[Op], Dict]:
        ctx, magnet = state["ctx"], state["magnet"]
        ctx.cache = DiskCache(workdir)          # every cell misses
        _, y0 = ctx.attack_seeds()
        n = len(y0)
        ops, cells = [], {}

        def score(results):
            return {rule: {"success": _bits(r.success),
                           "asr": magnet.attack_success_rate(r.x_adv, y0),
                           "l1": r.mean_distortion("l1"),
                           "l2": r.mean_distortion("l2")}
                    for rule, r in results.items()}

        def cw_cell(kappa):
            return score({"cw": tracer.call("experiments.cell", ctx.cw,
                                            kappa)})

        def ead_cell(beta, kappa):
            return score(tracer.call("experiments.cell", ctx.ead, beta,
                                     kappa))

        for kappa in self.kappas:
            key = f"cw/{kappa:g}"
            op, cells[key] = timed(tracer, "light", key, n, cw_cell, kappa)
            ops.append(op)
            for beta in self.betas:
                key = f"ead/{beta:g}/{kappa:g}"
                op, cells[key] = timed(tracer, "heavy", key, n, ead_cell,
                                       beta, kappa)
                ops.append(op)
        return ops, jsonable(cells)

    def close(self, state) -> None:
        pass


# ----------------------------------------------------------------------
# evaluate
# ----------------------------------------------------------------------
EVAL_PROFILE = dataclasses.replace(
    SMOKE, name="perfbench-evaluate",
    digits_sizes=(192, 64, 64), objects_sizes=(192, 64, 64),
    digits_attack=4, objects_attack=4,
    max_iterations=40, binary_search_steps=2,
    digits_kappas=(0.0,), objects_kappas=(0.0,), betas=(1e-2,),
    wide_width=4, ae_epochs=1, wide_ae_epochs=1, classifier_epochs=4)


class Evaluate:
    """Experiments against a store set-up filled cold.

    Contexts are cleared before each experiment, so each one regenerates
    its splits, reloads models and attacks from the store, recalibrates
    and evaluates: store reads and inference forwards, no backward pass.
    Light: the clean-accuracy tables.  Heavy: the ASR tables.
    """

    name = "evaluate"
    rounds_at_10s = 4              # a round takes about 3 s
    rtol = 1e-4
    experiments = (("light", "table3"), ("heavy", "table1"),
                   ("light", "table6"), ("heavy", "table4"))

    def config(self):
        return {"profile": EVAL_PROFILE.config(),
                "experiments": self.experiments}

    def setup(self, variant: int, workdir: Path):
        cache = DiskCache(workdir)
        clear_contexts()
        t0 = time.perf_counter()
        load_digit_splits(*EVAL_PROFILE.digits_sizes, seed=variant)
        load_object_splits(*EVAL_PROFILE.objects_sizes, seed=variant)
        generate_s = time.perf_counter() - t0
        for _, exp_id in self.experiments:      # cold pass fills the store
            run_experiment(exp_id, profile=EVAL_PROFILE, cache=cache,
                           seed=variant)
        return {"cache": cache, "variant": variant, "generate_s": generate_s}

    def run_round(self, state, workdir: Path, tracer) -> Tuple[List[Op], Dict]:
        ops, reports = [], {}

        def experiment(exp_id):
            clear_contexts()
            return tracer.call("experiments.run", run_experiment, exp_id,
                               profile=EVAL_PROFILE, cache=state["cache"],
                               seed=state["variant"])

        for kind, exp_id in self.experiments:
            op, report = timed(tracer, kind, exp_id, 1, experiment, exp_id)
            ops.append(op)
            reports[exp_id] = jsonable(report.data)
        return ops, reports

    def close(self, state) -> None:
        clear_contexts()


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
#: Serving cost does not depend on how well the models are trained, and
#: the serve gate compares served verdicts with offline ones bitwise, so
#: serve keeps the profile's quick training and a short set-up.
SERVE_PROFILE = dataclasses.replace(
    SMOKE, name="perfbench-serve", digits_sizes=(256, 128, 128),
    ae_epochs=1, classifier_epochs=1)


@dataclasses.dataclass
class Window:
    """One open-loop load window at a fixed rate."""

    rate: float
    sent: int
    succeeded: int
    failed: int
    latency_ms: np.ndarray        # per succeeded request, from its due time
    late_ms: np.ndarray           # generator lateness per arrival
    backlog_max: int
    backlog_end: int
    busy_s: float                 # first due time to last completion
    cpu_s: float
    verdicts: List[Tuple[int, object]]

    def pct(self, q: float) -> float:
        return float(np.percentile(self.latency_ms, q))


class Serve:
    """Open-loop Poisson load on ``InferenceService`` (default config).

    One generator thread (the main thread) submits on a seeded schedule
    and times each request from its due time.  ``light`` and ``heavy``
    windows alternate, ``windows`` of each, so a slow spell of a shared
    host lands in few windows of either rate and the per-window median
    percentiles stay put.  Then ``bursts`` closed-loop capacity bursts
    keep ``in_flight`` requests outstanding until ``burst_requests`` are
    served, and the rate ladder is climbed ``climbs`` times: from
    ``ladder[0]`` up by the factor ``ladder[1]``, stopping at the first
    rate that misses the p90 limit, fails a request or ends with a
    backlog.
    """

    name = "serve"
    light_rps = 150.0
    heavy_rps = 300.0
    # Geometric rungs keep a climb short however far capacity moves.
    ladder = (450.0, 1.1, 4000.0)    # start, factor, stop
    windows = 9
    climbs = 5
    p90_limit_ms = 50.0
    bursts = 5
    burst_requests = 256
    in_flight = 64                   # two full batches of the default config

    def setup(self, variant: int, workdir: Path):
        ctx = ExperimentContext("digits", SERVE_PROFILE,
                                cache=DiskCache(workdir), seed=variant)
        t0 = time.perf_counter()
        ctx.splits
        generate_s = time.perf_counter() - t0
        magnet = ctx.magnet("default")
        service = InferenceService(magnet, ServingConfig()).start()
        return {"service": service, "magnet": magnet,
                "inputs": ctx.splits.test.x,
                "generate_s": generate_s}

    def close(self, state) -> None:
        state["service"].stop()

    def window(self, state, rate: float, duration: float,
               rng: np.random.Generator) -> Window:
        service, inputs = state["service"], state["inputs"]
        depth = gauge("serve/queue_depth")
        # A Poisson process conditioned on its count: a fixed number of
        # arrivals at sorted uniform times, so every window offers the
        # same load and only the arrival pattern depends on the seed.
        due = np.sort(rng.uniform(0.0, duration,
                                  size=max(1, round(rate * duration))))
        picks = rng.integers(0, len(inputs), size=len(due))
        done = np.full(len(due), np.nan)
        late = np.zeros(len(due))
        futures = []
        backlog_max = 0
        gc.collect()
        c0 = time.process_time()
        t0 = time.perf_counter() + 0.002
        for i, d in enumerate(due):
            wait = t0 + d - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            late[i] = time.perf_counter() - (t0 + d)
            try:
                fut = service.submit(inputs[picks[i]])
            except QueueFullError:
                continue
            fut.add_done_callback(
                lambda f, i=i: done.__setitem__(i, time.perf_counter()))
            futures.append((i, fut))
            backlog_max = max(backlog_max, int(depth.value))
        backlog_end = int(depth.value)
        verdicts, failed = [], len(due) - len(futures)
        for i, fut in futures:
            try:
                verdicts.append((int(picks[i]), fut.result(timeout=30)))
            except Exception:
                failed += 1
                done[i] = np.nan
        end = np.nanmax(done) if np.isfinite(done).any() else t0 + duration
        ok = np.isfinite(done)
        return Window(rate=rate, sent=len(due), succeeded=int(ok.sum()),
                      failed=failed,
                      latency_ms=(done[ok] - (t0 + due[ok])) * 1e3,
                      late_ms=late * 1e3, backlog_max=backlog_max,
                      backlog_end=backlog_end, busy_s=end - t0,
                      cpu_s=time.process_time() - c0, verdicts=verdicts)

    def burst(self, state, rng: np.random.Generator) -> Window:
        """Closed loop: ``burst_requests`` requests, ``in_flight`` at a time.

        The window's ``rate`` is its completion rate, the service's
        capacity with a full queue; latency is timed from submission.
        """
        service, inputs = state["service"], state["inputs"]
        n = self.burst_requests
        picks = rng.integers(0, len(inputs), size=n)
        slots = threading.Semaphore(self.in_flight)
        sent, done = np.zeros(n), np.full(n, np.nan)

        def finish(i):
            done[i] = time.perf_counter()
            slots.release()

        futures = []
        gc.collect()
        c0 = time.process_time()
        t0 = time.perf_counter()
        for i in range(n):
            slots.acquire()
            sent[i] = time.perf_counter()
            try:
                fut = service.submit(inputs[picks[i]])
            except QueueFullError:
                slots.release()
                continue
            fut.add_done_callback(lambda f, i=i: finish(i))
            futures.append((i, fut))
        verdicts, failed = [], n - len(futures)
        for i, fut in futures:
            try:
                verdicts.append((int(picks[i]), fut.result(timeout=30)))
            except Exception:
                failed += 1
                done[i] = np.nan
        ok = np.isfinite(done)
        busy = (np.nanmax(done) if ok.any() else time.perf_counter()) - t0
        return Window(rate=ok.sum() / busy, sent=n, succeeded=int(ok.sum()),
                      failed=failed, latency_ms=(done[ok] - sent[ok]) * 1e3,
                      # Closed loop: the queue never holds more than
                      # ``in_flight``, so there is no backlog to report.
                      late_ms=np.zeros(0), backlog_max=0,
                      backlog_end=0, busy_s=busy,
                      cpu_s=time.process_time() - c0, verdicts=verdicts)

    def passes(self, w: Window) -> bool:
        return (w.failed == 0 and w.succeeded > 0
                and w.pct(90) <= self.p90_limit_ms
                and w.backlog_end <= ServingConfig().max_batch)

    def measure(self, state, seconds: float, rng: np.random.Generator,
                part: int, parts: int):
        """Part ``part`` of ``parts`` of the load sequence, by phase.

        ``ladder`` holds one list per climb.  At ``--seconds 10`` a
        fixed-rate window lasts 0.7 s (105 requests at the light rate, so
        p90 has ten samples beyond it) and a ladder rung 0.5 s.
        """
        window_s, rung_s = seconds * 0.07, seconds * 0.05
        phases = {"light": [], "heavy": [], "capacity": [], "ladder": []}
        for _ in range(share(self.windows, part, parts)):
            for phase, rate in (("light", self.light_rps),
                                ("heavy", self.heavy_rps)):
                phases[phase].append(self.window(state, rate, window_s, rng))
        for _ in range(share(self.bursts, part, parts)):
            phases["capacity"].append(self.burst(state, rng))
        start, factor, stop = self.ladder
        for _ in range(share(self.climbs, part, parts)):
            climb, rate = [], start
            while rate <= stop:
                climb.append(self.window(state, rate, rung_s, rng))
                if not self.passes(climb[-1]):
                    break
                rate *= factor
            phases["ladder"].append(climb)
        return phases

    def max_rate(self, phases) -> float:
        """Median over the climbs of the highest rate meeting the limit."""
        base = float(np.median([w.pct(90) for w in phases["heavy"]]))
        return float(np.median([self._climb_rate(climb, base)
                                for climb in phases["ladder"]]))

    def _climb_rate(self, climb, base_p90: float) -> float:
        """One climb's highest rate meeting the limit, interpolated on p90.

        Between the last passing rung (or the heavy rate) and the first
        failing one the rate is interpolated linearly where p90 crosses
        the limit, so the figure moves continuously instead of in ladder
        steps.  A rung that fails by requests or backlog rather than by
        p90 ends the climb at the last passing rate.
        """
        last_rate, last_p90 = self.heavy_rps, base_p90
        for w in climb:
            if self.passes(w):
                last_rate, last_p90 = w.rate, w.pct(90)
                continue
            if w.failed == 0 and w.succeeded and w.pct(90) > last_p90:
                frac = (self.p90_limit_ms - last_p90) / (w.pct(90) - last_p90)
                return last_rate + max(0.0, frac) * (w.rate - last_rate)
            return last_rate
        return last_rate

    #: Units of the serving-layer figures :meth:`layer` returns.
    layer_units = {"queue_wait_ms.p50": "ms", "queue_wait_ms.p90": "ms",
                   "batch_size_mean": "count", "infer_ms": "ms",
                   "backlog_max": "count",
                   "gen_late_ms": "ms"}

    def layer(self, phases) -> Dict[str, float]:
        """Serving-layer figures from the verdicts and the generator."""
        windows = self.all_windows(phases)
        verdicts = [v for w in windows for _, v in w.verdicts]
        queue = [v.queue_ms for v in verdicts]
        return {
            "queue_wait_ms.p50": float(np.percentile(queue, 50)),
            "queue_wait_ms.p90": float(np.percentile(queue, 90)),
            "batch_size_mean": float(np.mean([v.batch_size
                                              for v in verdicts])),
            "infer_ms": float(np.mean([v.infer_ms for v in verdicts])),
            "backlog_max": float(max(w.backlog_max for w in windows)),
            "gen_late_ms": float(np.percentile(
                np.concatenate([w.late_ms for w in windows]), 90)),
        }

    @staticmethod
    def all_windows(phases) -> List[Window]:
        return (phases["light"] + phases["heavy"] + phases["capacity"]
                + [w for climb in phases["ladder"] for w in climb])

    def check(self, state, phases) -> List[str]:
        """Served verdicts must equal offline ``decide_batch`` bitwise."""
        served = [v for w in self.all_windows(phases) for v in w.verdicts]
        sample = served[::max(1, len(served) // 256)]
        if not sample:
            return ["no request was served"]
        picks = np.array([i for i, _ in sample])
        magnet: MagNet = state["magnet"]
        offline = magnet.decide_batch(state["inputs"][picks])
        names = [d.name for d in magnet.detectors]
        bad = []
        for j, (_, v) in enumerate(sample):
            want = (int(offline.labels_reformed[j]),
                    bool(offline.detected[j]), int(offline.labels_raw[j]),
                    {n: float(offline.detector_scores[d, j])
                     for d, n in enumerate(names)},
                    {n: bool(offline.detector_flags[d, j])
                     for d, n in enumerate(names)})
            got = (v.label, v.detected, v.label_raw, v.detector_scores,
                   v.detector_flags)
            if got != want:
                bad.append(f"verdict {v.request_id}: {got} != {want}")
        return bad


WORKLOADS = {w.name: w for w in (Train, Craft, Evaluate, Serve)}


def config_digest(workload) -> str:
    """Digest of a workload's definition, stored with its reference."""
    from repro.utils.cache import stable_hash
    return stable_hash(json.loads(json.dumps(jsonable(workload.config()))))
