"""Record ``reference.json``: the outputs the correctness gate expects.

Runs one round of each offline workload on every input set and stores
its outputs with a digest of the workload's definition.  Re-record only
when a workload definition changes or a change to the program is meant
to change its numerics; say which in the change that does it.

Usage::

    python3 perfbench/record.py [--workload train craft evaluate]
"""

from __future__ import annotations

import argparse
import json

from run import HERE, import_program, workspace

OFFLINE = ("train", "craft", "evaluate")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", choices=OFFLINE,
                        default=list(OFFLINE))
    args = parser.parse_args(argv)
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    with workspace("record") as work:
        wl = import_program()
        for name in args.workload:
            workload = wl.WORKLOADS[name]()
            outputs = {}
            for variant in range(wl.VARIANTS):
                state = workload.setup(variant, work / f"{name}{variant}")
                try:
                    _, outputs[str(variant)] = workload.run_round(
                        state, work / f"{name}{variant}-round",
                        wl.NullTracer())
                finally:
                    workload.close(state)
                print(f"recorded {name} input set {variant}", flush=True)
            reference[name] = {"config": wl.config_digest(workload),
                               "outputs": outputs}
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
