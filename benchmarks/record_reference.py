"""Record the reference errors that the benchmark checks its outputs against.

Run from the root of a checkout, after a change that is meant to alter
results (a change that is not must leave reference.json as it is):

    python3 benchmarks/record_reference.py

For each workload and each of the ``SEEDS`` noise draws this runs one
pass and stores the relative error of every solver output.  A run, whose
seed selects one of those draws, must reproduce them to 1e-8.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_package()
    from workloads import SEEDS, WORKLOADS, Clock, Cli

    out = {}
    for name, cls in WORKLOADS.items():
        kwargs = {"workdir": run.WORK / name} if cls is Cli else {}
        draws = {}
        for seed in range(SEEDS):
            workload = cls(seed, None, **kwargs)
            workload.check(workload.run_pass(Clock()))
            if workload.ledger.failures:
                raise SystemExit(f"{name} seed {seed}: {workload.ledger.failures}")
            draws[str(seed)] = dict(sorted(workload.seen.items()))
            print(name, seed, draws[str(seed)], file=sys.stderr, flush=True)
        out[name] = draws
    (run.HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
