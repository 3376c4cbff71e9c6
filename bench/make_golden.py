"""Write golden.json: digests and row shapes of every workload at the default seed.

    python3 bench/make_golden.py

Run this only on the code whose output is the reference.  The checked-in
golden.json was written by the seed version of bcesim.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bcesim.config  # noqa: E402
import bcesim.experiments as ex  # noqa: E402
from checks import describe  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main():
    golden = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        cfg = bcesim.config.parse_config(workload.config_text(DEFAULT_SEED))
        golden["workloads"][name] = describe(workload.run(ex, cfg))
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
