"""Repository benchmark: one workload per run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train --seed 3 --seconds 10 --trace 0

Workloads: ``train``, ``craft``, ``evaluate`` and ``serve`` (see
``workloads.py``).  A run sets the workload up ``SETUP_REPEATS`` times
(reporting the median as ``setup_s``) and after each set-up executes its
share of a fixed sequence of whole operations sized from ``--seconds``;
it checks the program's outputs and prints, as its last stdout line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
sequence untraced and then traced, and prints the per-layer metrics,
including each layer's self time, the unattributed residual that closes
the sum to operation wall time, and the tracing overhead.  Earlier lines
carry the host fingerprint and, for ``serve``, each window's rate, sent,
succeeded and failed counts.  The exit code is 0 only when the outputs
match the reference.

Everything the run writes lives under ``.perfbench/`` in the checkout and
is removed when it ends.  The program's BLAS threading is recorded in the
fingerprint and left as the environment sets it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")
#: Residual below this share of wall time means spans double count.
RESIDUAL_TOLERANCE = 0.01


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "craft", "evaluate", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import the program from this checkout's ``src``; fail without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")
    import workloads
    return workloads


def fingerprint(seed: int, variants) -> dict:
    import numpy
    import scipy
    from repro.nn.backend import get_default_backend_name
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "nproc": os.cpu_count(), "affinity_cpus": affinity,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nn_backend": get_default_backend_name(),
        "seed": seed, "input_sets": variants,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pct(values, q: float) -> float:
    return float(np.percentile(values, q))


def input_sets(seed: int, count: int):
    """The recorded input sets one run uses, one per set-up."""
    return [(seed + part) % count for part in range(SETUP_REPEATS)]


def load_reference(wl, workload, variant: int):
    """The recorded outputs for this input set, or a reason there are none."""
    path = HERE / "reference.json"
    if not path.is_file():
        return None, f"missing {path.name}; run perfbench/record.py"
    ref = json.loads(path.read_text())
    entry = ref.get(workload.name, {})
    if entry.get("config") != wl.config_digest(workload):
        return None, (f"{workload.name} definition changed since "
                      "reference.json was recorded; run perfbench/record.py")
    return entry["outputs"][str(variant)], None


class Run:
    """One benchmark invocation's state and measurements."""

    def __init__(self, args, wl, work: Path):
        self.args, self.wl, self.work = args, wl, work
        self.workload = wl.WORKLOADS[args.workload]()
        self.variants = input_sets(args.seed, wl.VARIANTS)
        self.mismatches = []
        self.attempted = 0
        self.failed = 0
        self.generate_s = []

    def measure(self, tracer_factory):
        """Set up ``SETUP_REPEATS`` times, measuring a share after each.

        The measured sequence is split into ``SETUP_REPEATS`` parts and
        part ``i`` runs on the state of set-up ``i``, so the samples are
        spread over the whole run: a slow spell of a shared host then
        covers few of them.  Set-up ``i`` uses input set ``variants[i]``,
        so every run's figures cover several input sets.  ``setup_s`` is
        the median set-up time; there is no separate warm-up, because
        offline metrics use each operation's best round and serve metrics
        the median window.
        Returns the last state, still open, and the parts' results.
        """
        times, parts, state = [], [], None
        rng = np.random.default_rng(self.args.seed)
        try:
            for part in range(SETUP_REPEATS):
                if state is not None:
                    self.workload.close(state)
                    state = None
                t0 = time.perf_counter()
                state = self.workload.setup(self.variants[part],
                                            self.work / f"setup{part}")
                times.append(time.perf_counter() - t0)
                self.generate_s.append(state["generate_s"])
                parts.append(self.measure_part(
                    state, self.variants[part], part, rng, tracer_factory(),
                    "round"))
        except BaseException:
            if state is not None:
                self.workload.close(state)
            raise
        self.setup_s = statistics.median(times)
        return state, parts

    def measure_part(self, state, variant: int, part: int, rng, tracer,
                     tag: str):
        if self.args.workload == "serve":
            return self.serve_pass(state, part, rng, tracer)
        rounds = self.wl.share(self.rounds(), part, SETUP_REPEATS)
        return self.offline_pass(state, variant, tracer, f"{tag}{part}-",
                                 rounds)

    # -------------------------------------------------- offline workloads
    def rounds(self) -> int:
        """The workload's fixed round count, scaled by ``--seconds``."""
        return max(1, round(self.workload.rounds_at_10s
                            * self.args.seconds / 10))

    def offline_pass(self, state, variant: int, tracer, tag: str,
                     rounds: int):
        reference, why = load_reference(self.wl, self.workload, variant)
        if why:
            self.mismatches.append(why)
        ops = []
        for r in range(rounds):
            round_ops, outputs = self.workload.run_round(
                state, self.work / f"{tag}{r}", tracer)
            ops += round_ops
            self.attempted += len(round_ops)
            if reference is not None:
                self.mismatches += self.wl.compare(
                    outputs, reference, self.workload.rtol,
                    f"{self.workload.name}[{tag}{r}]")
        return ops

    def offline_metrics(self, ops) -> dict:
        """Metrics from each operation's best time over the rounds.

        Every round runs the same operations, so an operation's fastest
        round (by ``key``; best of N, as ``timeit`` reports) is its time
        without the stalls a shared host adds to some rounds.  ``p50_ms``
        is the median of these per-operation times and ``p50/p90_ms`` of
        a class the median and 90th percentile over the class's
        operations: percentiles over operations, not over noisy samples
        of one.  Throughput, operation rate and CPU are those of one
        round at the per-operation times; offline, ``max_rate_rps`` (whole
        operations per second) is a fixed multiple of ``items_per_s``.
        """
        keys = sorted({o.key for o in ops})
        kind = {o.key: o.kind for o in ops}
        wall = best_times(ops, "wall_s")
        cpu = best_times(ops, "cpu_s")
        items = {o.key: o.items for o in ops}
        round_ms = sum(wall.values())
        out = {
            "setup_s": (self.setup_s, "s"),
            "p50_ms": (statistics.median(wall.values()), "ms"),
            "items_per_s": (sum(items.values()) / round_ms * 1e3, "1/s"),
            "max_rate_rps": (len(keys) / round_ms * 1e3, "1/s"),
            "cpu_ms": (statistics.mean(cpu.values()), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        for cls in ("light", "heavy"):
            times = [wall[k] for k in keys if kind[k] == cls]
            out[f"p50_ms.{cls}"] = (statistics.median(times), "ms")
            out[f"p90_ms.{cls}"] = (pct(times, 90), "ms")
        return out

    # --------------------------------------------------------- serve
    def serve_pass(self, state, part: int, rng, tracer):
        tracer.start()
        try:
            phases = self.workload.measure(state, self.args.seconds, rng,
                                           part, SETUP_REPEATS)
        finally:
            tracer.stop()
        # Ladder rungs past capacity are meant to miss: their misses end
        # the climb and are reported per window, not as failed requests.
        for phase in ("light", "heavy", "capacity"):
            for w in phases[phase]:
                self.attempted += w.sent
                self.failed += w.failed
        self.mismatches += self.workload.check(state, phases)
        print(json.dumps({"serve_windows": [
            {"rate": w.rate, "sent": w.sent, "succeeded": w.succeeded,
             "failed": w.failed,
             "p90_ms": w.pct(90) if w.succeeded else None,
             "generator_late_p90_ms": (float(np.percentile(w.late_ms, 90))
                                       if len(w.late_ms) else None)}
            for w in self.workload.all_windows(phases)]}), flush=True)
        return phases

    def serve_metrics(self, phases) -> dict:
        def med(phase, q):
            return statistics.median(w.pct(q) for w in phases[phase])

        fixed = phases["light"] + phases["heavy"]
        requests = sum(w.succeeded for w in fixed)
        return {
            "setup_s": (self.setup_s, "s"),
            "p50_ms": (pct(np.concatenate([w.latency_ms for w in fixed]),
                           50), "ms"),
            "p50_ms.light": (med("light", 50), "ms"),
            "p90_ms.light": (med("light", 90), "ms"),
            "p50_ms.heavy": (med("heavy", 50), "ms"),
            "p90_ms.heavy": (med("heavy", 90), "ms"),
            "items_per_s": (statistics.median(w.rate for w in
                                              phases["capacity"]), "1/s"),
            "max_rate_rps": (self.workload.max_rate(phases), "1/s"),
            "cpu_ms": (sum(w.cpu_s for w in fixed) / requests * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    # --------------------------------------------------------- traced
    def layer_metrics(self, tracer, wall_s: float, covered_s: float,
                      n: int, overhead: float, cpu_s: float,
                      serving: dict) -> dict:
        """Per-layer metrics; times and counts are per operation.

        ``overhead`` is traced over untraced time of the same sequence.
        """
        t, c, counters = tracer.total_s, tracer.counts, tracer.program

        def ms(*names):
            return sum(t.get(k, 0.0) for k in names) * 1e3 / n

        def ratio(a, b):
            return a / b if b else 0.0

        kernels = ("nn.conv_fwd", "nn.conv_bwd_input", "nn.conv_bwd_weight",
                   "nn.pool_fwd", "nn.pool_bwd")
        layers = tracer.layer_self_s()
        residual = wall_s - covered_s
        if residual < -RESIDUAL_TOLERANCE * wall_s:
            self.mismatches.append(
                f"trace accounting: spans cover {covered_s:.6f}s of "
                f"{wall_s:.6f}s wall")
        if c.get("nn.conv_calls", 0) != counters["nn/conv_dispatches"]:
            self.mismatches.append(
                f"trace accounting: {c.get('nn.conv_calls', 0):g} conv calls "
                f"traced, {counters['nn/conv_dispatches']} dispatched")
        hits, misses = counters["cache/hits"], counters["cache/misses"]
        out = {
            "nn.conv_fwd_ms": (ms("nn.conv_fwd"), "ms"),
            "nn.conv_bwd_input_ms": (ms("nn.conv_bwd_input"), "ms"),
            "nn.conv_bwd_weight_ms": (ms("nn.conv_bwd_weight"), "ms"),
            "nn.pool_fwd_ms": (ms("nn.pool_fwd"), "ms"),
            "nn.pool_bwd_ms": (ms("nn.pool_bwd"), "ms"),
            "nn.optim_step_ms": (ms("nn.optim_step"), "ms"),
            "nn.conv_calls": (counters["nn/conv_dispatches"] / n, "count"),
            "nn.conv_mb_moved": (c.get("nn.conv_bytes", 0) / 1e6 / n, "MB"),
            "nn.kernel_share": (ratio(ms(*kernels) * n / 1e3, wall_s),
                                "ratio"),
            "models.fit_ms": (ms("models.fit"), "ms"),
            "models.load_ms": (ms("models.get") - ms("models.fit"), "ms"),
            "store.save_ms": (ms("store.save"), "ms"),
            "store.load_ms": (ms("store.load"), "ms"),
            "store.bytes_written": (c.get("store.bytes_written", 0) / n,
                                    "B"),
            "store.hit_ratio": (ratio(hits, hits + misses), "ratio"),
            "attacks.step_ms": (ratio(ms("attacks.run") * n,
                                      c.get("attacks.dispatches", 0)), "ms"),
            "attacks.dispatches": (c.get("attacks.dispatches", 0) / n,
                                   "count"),
            "attacks.active_lane_ratio": (
                ratio(c.get("attacks.lane_iterations", 0),
                      c.get("attacks.lane_slots", 0)), "ratio"),
            "attacks.success_rate": (ratio(c.get("attacks.successes", 0),
                                           c.get("attacks.lanes", 0)),
                                     "ratio"),
            "defenses.calibrate_ms": (ms("defenses.calibrate"), "ms"),
            "defenses.detect_ms": (ms("defenses.detect"), "ms"),
            "defenses.reform_ms": (ms("defenses.reform"), "ms"),
            "defenses.classify_ms": (ms("defenses.decide")
                                     - ms("defenses.detect", "defenses.reform"),
                                     "ms"),
            "defenses.forwards_per_example": (
                ratio(c.get("defenses.classifier_rows", 0),
                      c.get("defenses.examples", 0)), "ratio"),
            "evaluation.ms": (ms("evaluation.seeds", "evaluation.breakdown"),
                              "ms"),
            "datasets.generate_ms": (statistics.median(self.generate_s) * 1e3,
                                     "ms"),
            "obs.op_wall_ms": (wall_s * 1e3 / n, "ms"),
            "obs.unattributed_ms": (residual * 1e3 / n, "ms"),
            "obs.overhead_frac": (overhead, "ratio"),
            "obs.cpu_over_wall": (ratio(cpu_s, wall_s), "ratio"),
        }
        for layer in ("nn", "models", "store", "attacks", "defenses",
                      "evaluation", "experiments", "datasets"):
            out[f"{layer}.self_ms"] = (layers.get(layer, 0.0) * 1e3 / n, "ms")
        for key, unit in self.wl.Serve.layer_units.items():
            out[f"serving.{key}"] = (serving.get(key, 0.0), unit)
        out["serving.rejected"] = (float(counters["serve/rejected"]), "count")
        return out


def best_times(ops, field: str) -> dict:
    """Each operation's fastest round, in milliseconds, by ``key``."""
    best = {}
    for o in ops:
        best[o.key] = min(best.get(o.key, np.inf), getattr(o, field) * 1e3)
    return best


def mean_infer_ms(phases) -> float:
    """Mean batch inference time in the heavy windows, whose arrival
    schedule is the same in the untraced and the traced pass."""
    return statistics.mean(v.infer_ms for w in phases["heavy"]
                           for _, v in w.verdicts)


def merge(parts):
    """One result from the parts' op lists or serve phase dicts."""
    if isinstance(parts[0], list):
        return [o for p in parts for o in p]
    return {k: [w for p in parts for w in p[k]] for k in parts[0]}


def execute(args, wl, work: Path):
    """Set up, measure and (with ``--trace 1``) trace one workload.

    The traced pass repeats the measured sequence on the last state,
    with the serve arrival schedules drawn again from the seed.
    """
    import tracer as tracing

    run = Run(args, wl, work)
    state, parts = run.measure(wl.NullTracer)
    try:
        untraced = merge(parts)
        if not args.trace:
            return run, (run.serve_metrics(untraced)
                         if args.workload == "serve"
                         else run.offline_metrics(untraced))

        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        rng = np.random.default_rng(args.seed)
        try:
            traced = merge([run.measure_part(state, run.variants[-1], part,
                                             rng, tracer, "traced")
                            for part in range(SETUP_REPEATS)])
        finally:
            patches.undo()

        if args.workload == "serve":
            # The serving worker threads hold every span; their spans are
            # accounted against the windows' busy time (first arrival to
            # last completion), per completed request.
            phases = traced
            windows = wl.Serve.all_windows(phases)
            workers = [t.ident for t in threading.enumerate()
                       if t.name.startswith("repro-serve")]
            wall = sum(w.busy_s for w in windows)
            return run, run.layer_metrics(
                tracer, wall, tracer.top_level_s(workers),
                sum(w.succeeded for w in windows),
                mean_infer_ms(phases) / mean_infer_ms(untraced),
                sum(w.cpu_s for w in windows),
                run.workload.layer(phases))
        wall = sum(o.wall_s for o in traced)
        return run, run.layer_metrics(
            tracer, wall, tracer.top_level_s([threading.get_ident()]),
            len(traced),
            sum(best_times(traced, "wall_s").values())
            / sum(best_times(untraced, "wall_s").values()),
            sum(o.cpu_s for o in traced), {})
    finally:
        run.workload.close(state)


@contextlib.contextmanager
def workspace(tag: str):
    """A work directory inside the checkout, removed on exit.

    The program's default store and temporary files are pointed into it,
    so nothing outside it (the tracked ``.repro_cache/`` included) is
    written.
    """
    work = ROOT / ".perfbench" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-cache")
    os.environ.setdefault("REPRO_LOG_LEVEL", "WARNING")
    (work / "tmp").mkdir()
    os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    args = parse_args(argv)
    with workspace(args.workload) as work:
        wl = import_program()
        print(json.dumps({"fingerprint": fingerprint(
            args.seed, input_sets(args.seed, wl.VARIANTS))}), flush=True)
        run, metrics = execute(args, wl, work)
    for line in run.mismatches[:20]:
        print(f"perfbench: mismatch: {line}", file=sys.stderr)
    result = {
        "correct": not run.mismatches,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
