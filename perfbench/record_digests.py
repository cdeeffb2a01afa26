"""Record the SHA-256 of the machine output of every workload, for seeds
0..SEEDS-1, into perfbench/digests.json.  From the root of a checkout:

    python3 perfbench/record_digests.py

The benchmark compares every solve against these digests, so re-record
them only with a change that is meant to alter machine output.
"""

import json

from run import use_checkout_source

SEEDS = 256

if __name__ == "__main__":
    use_checkout_source()
    import harness
    import workloads

    table = {
        workload: [
            harness.digest(harness.solve(json.dumps(workloads.document(workload, seed)))[3])
            for seed in range(SEEDS)
        ]
        for workload in workloads.WORKLOADS
    }
    with open(harness.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=0)
        handle.write("\n")
