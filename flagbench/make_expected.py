"""Regenerate flagbench/expected.json, the stored answers of every
benchmark instance.

    python3 flagbench/make_expected.py

Heights are stored from `--method all` runs, so an instance timed with
`--method substitution` is checked against the value all three algorithms
agree on.  A character is stored with the Weyl dimension of its highest
weight, from the `dim` command.  Run this only when the workloads change;
a changed answer is a bug in the library, not a reason to regenerate.
"""

import json
import sys

from run import call_cli, import_cli
from workloads import EXPECTED_PATH, WORKLOADS, check_pairs, expected_entry, \
    height_value, key


def main() -> int:
    cli = import_cli()
    expected = {}
    for workload in WORKLOADS.values():
        for argv in workload["instances"]:
            run_argv = list(argv)
            if argv[0] == "height":
                run_argv[run_argv.index("--method") + 1] = "all"
            _, rc, out = call_cli(cli, run_argv)
            entry = expected_entry(argv, rc, out)
            if argv[0] == "char":
                dim_argv = ("dim",) + tuple(argv[1:])
                _, rc, out = call_cli(cli, dim_argv)
                entry["weyl_dim"] = expected_entry(dim_argv, rc, out)[
                    "doc"]["dim"]
            expected[key(argv)] = entry
            print(f"stored {key(argv)}", file=sys.stderr)
        heights = {}
        for base, doubled in workload["pairs"]:
            for argv in (base, doubled):
                doc = expected[key(argv)]["doc"]
                heights[key(argv)] = (height_value(doc), doc["dim"])
        bad = check_pairs(workload["pairs"], heights)
        if bad:
            raise SystemExit(f"homogeneity fails: {bad}")
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
