"""Self-tests of the benchmark itself.

1. Gate sensitivity: ``craft`` on the numpy backend matches the
   reference, and ``craft`` with the profile switched to the fft backend
   (which moves EAD's mean L1/L2 distortion) fails the gate.
2. Isolation: every workload runs at a tiny size (``--seconds 1``), in
   both trace modes, from the repository root; each run exits 0 with
   ``correct: true`` and prints exactly the metrics ``BENCHMARK.json``
   names, and ``git status --porcelain`` is the same afterwards.
3. Missing program: in a directory holding only ``BENCHMARK.json`` and
   the benchmark's files, ``run.py`` exits non-zero without a result.

Usage (from the repository root)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

from run import HERE, ROOT, import_program, load_reference, workspace

WORKLOADS = ("train", "craft", "evaluate", "serve")


def check(condition: bool, message: str) -> bool:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    return condition


def gate_sensitivity() -> bool:
    with workspace("selftest-gate") as work:
        wl = import_program()
        numpy_craft = wl.Craft()
        reference, why = load_reference(wl, numpy_craft, 0)
        if why:
            return check(False, why)
        fft_craft = wl.Craft(dataclasses.replace(wl.CRAFT_PROFILE,
                                                 nn_backend="fft"))
        found = {}
        for label, craft in (("numpy", numpy_craft), ("fft", fft_craft)):
            state = craft.setup(0, work / f"{label}-setup")
            _, outputs = craft.run_round(state, work / f"{label}-round",
                                         wl.NullTracer())
            found[label] = wl.compare(outputs, reference, craft.rtol)
        for line in found["fft"][:5]:
            print(f"      fft mismatch: {line}")
        return (check(not found["numpy"], "craft gate accepts numpy")
                & check(bool(found["fft"]), "craft gate rejects fft "
                        f"({len(found['fft'])} mismatches)"))


def run_bench(cwd, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def git_status():
    try:
        return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def isolation() -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    before = git_status()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok &= check(proc.returncode == 0 and result.get("correct") is True
                        and set(result.get("metrics", {})) == expected[trace],
                        f"{workload} --trace {trace} runs, passes its gate "
                        "and prints its metrics")
            if proc.returncode:
                print(proc.stderr[-2000:])
    if before is None:
        return ok & check(True, "not a git checkout; tracked-file check "
                          "skipped")
    return ok & check(git_status() == before,
                      "git status unchanged after every workload")


def missing_program() -> bool:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "train", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    printed_result = any('"correct"' in line
                         for line in proc.stdout.splitlines())
    return check(proc.returncode != 0 and not printed_result,
                 "without the program, run.py fails and prints no result")


def main() -> int:
    results = [gate_sensitivity(), isolation(), missing_program()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
