"""The benchmark's workloads, their seeded order, and the answer checks.

Every instance is one `flagheight` command line, run in-process through
`flagheight.cli.main` the way a user runs the CLI.  The set of instances of
a workload is fixed; the seed only shuffles the order of each pass, which
also decides whether a weight runs before or after its doubled partner.  So
the total work of a run does not depend on the seed.

The coset cache (`--cache-dir`) and `scripts/` are deliberately not used:
both are slated for deletion, and a workload using them would fail that
change.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def _height(group, theta, lam, method):
    return ("height", "--group", group, "--theta", theta,
            "--lambda", lam, "--method", method)


def _borel(group, lam):
    return _height(group, "", lam, "all")


def _maximal(group, theta, lam):
    return _height(group, theta, lam, "substitution")


def _jantzen(group, lam):
    return ("jantzen-rhs", "--group", group, "--theta", "", "--lambda", lam)


def _weight_cmd(cmd, group, lam):
    # "--lambda=" so that argparse takes a leading minus sign as a value
    return (cmd, "--group", group, f"--lambda={lam}")


# Each workload: its instances, and the (lambda, 2 lambda) pairs among them
# whose heights must satisfy h(2 lambda) = 2^(N+1) h(lambda).
WORKLOADS = {
    # G/B at lambda = rho, 12 to 192 cosets: the coset BFS, the Weyl action
    # on Psi and the per-coset Fraction loops of fixed-point and harmo-bott.
    "borel_all": {
        "instances": [
            _borel("A3", "1,1,1"), _borel("B3", "1,1,1"),
            _borel("C3", "1,1,1"), _borel("G2", "1,1"),
            _borel("A4", "1,1,1,1"), _borel("D4", "1,1,1,1"),
            _borel("B2xA1", "1,1,1"),
            _borel("A3", "2,2,2"), _borel("G2", "2,2"),
            _borel("B2xA1", "2,2,2"),
        ],
        "pairs": [
            (_borel("A3", "1,1,1"), _borel("A3", "2,2,2")),
            (_borel("G2", "1,1"), _borel("G2", "2,2")),
            (_borel("B2xA1", "1,1,1"), _borel("B2xA1", "2,2,2")),
        ],
    },
    # Maximal parabolics at lambda = omega_i by substitution: dimension
    # polynomial products only; no coset is enumerated.
    "maximal_subst": {
        "instances": [
            _maximal("E6", "2,3,4,5,6", "1,0,0,0,0,0"),
            _maximal("E6", "1,3,4,5,6", "0,1,0,0,0,0"),
            _maximal("F4", "2,3,4", "1,0,0,0"),
            _maximal("F4", "1,2,3", "0,0,0,1"),
            _maximal("D6", "1,2,3,4,5", "0,0,0,0,0,1"),
            _maximal("C5", "1,2,3,4", "0,0,0,0,1"),
            _maximal("B5", "2,3,4,5", "1,0,0,0,0"),
            _maximal("D5", "2,3,4,5", "1,0,0,0,0"),
            _maximal("B5", "2,3,4,5", "2,0,0,0,0"),
            _maximal("D5", "2,3,4,5", "2,0,0,0,0"),
        ],
        "pairs": [
            (_maximal("B5", "2,3,4,5", "1,0,0,0,0"),
             _maximal("B5", "2,3,4,5", "2,0,0,0,0")),
            (_maximal("D5", "2,3,4,5", "1,0,0,0,0"),
             _maximal("D5", "2,3,4,5", "2,0,0,0,0")),
        ],
    },
    # Freudenthal, formal characters and the dotted action; no height
    # kernel and no coset BFS.
    "jantzen_char": {
        "instances": [
            _jantzen("D4", "1,1,1,1"), _jantzen("G2", "2,2"),
            _jantzen("B2", "3,2"), _jantzen("B3", "1,1,1"),
            _jantzen("A3", "2,1,1"),
            _weight_cmd("char", "A5", "2,1,1,1,2"),
            _weight_cmd("char", "B4", "2,1,1,1"),
            _weight_cmd("char", "E6", "1,0,0,0,0,1"),
            _weight_cmd("char", "F4", "1,0,0,1"),
            _weight_cmd("dim", "E7", "1,0,0,0,0,0,1"),
            _weight_cmd("dim", "F4", "1,0,0,1"),
            _weight_cmd("bwb", "D4", "-5,2,1,1"),
            _weight_cmd("bwb", "G2", "-2,-1"),
        ],
        "pairs": [],
    },
}


def key(argv) -> str:
    """Stable name of an instance: its command line."""
    return " ".join(a if a else '""' for a in argv)


def pass_order(instances, rng: random.Random) -> list:
    order = list(instances)
    rng.shuffle(order)
    return order


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


# -- answer checks (run outside the timed interval) --------------------


def height_value(doc) -> Fraction:
    return Fraction(int(doc["height"]["num"]), int(doc["height"]["den"]))


def expected_entry(argv, rc: int, out: str) -> dict:
    """The stored answer for one instance, from a verified run of it.  A
    height instance must have been run with `--method all`."""
    if rc != 0:
        raise ValueError(f"{key(argv)}: exit code {rc}")
    cmd = argv[0]
    if cmd == "height":
        doc = json.loads(out)
        if doc["methods_agreed"] is not True or doc["cor82_ok"] is not True:
            raise ValueError(f"{key(argv)}: unverified height {doc}")
        doc.pop("elapsed_ms")
        return {"doc": doc}
    if cmd in ("jantzen-rhs", "char"):
        return {"sha256": hashlib.sha256(out.encode()).hexdigest()}
    return {"doc": json.loads(out)}


_MULT = re.compile(r'"mult": (-?\d+)')
_TOTAL = re.compile(r'^  "dim": (\d+),$', re.M)


def check(argv, rc: int, out: str, expected: dict):
    """Check one run against its stored answer.  Returns (error or None,
    (height, N) for a height instance or None).  Large outputs are checked by
    digest and regular expressions, so the check adds little to the peak
    memory of the process."""
    name = key(argv)
    if rc != 0:
        return f"{name}: exit code {rc}", None
    want = expected.get(name)
    if want is None:
        return f"{name}: no stored answer", None
    cmd = argv[0]
    if cmd == "height":
        doc = json.loads(out)
        doc.pop("elapsed_ms", None)
        target = dict(want["doc"])
        method = argv[argv.index("--method") + 1]
        if method != "all":
            target["methods_agreed"] = None
        if doc != target or doc["cor82_ok"] is not True:
            return f"{name}: got {doc}, want {target}", None
        return None, (height_value(doc), doc["dim"])
    if cmd in ("jantzen-rhs", "char"):
        if hashlib.sha256(out.encode()).hexdigest() != want["sha256"]:
            return f"{name}: output differs from the stored answer", None
        if cmd == "jantzen-rhs" and \
                '"lambda0_component_zero": true' not in out:
            return f"{name}: lambda0 component is not zero", None
        if cmd == "char":
            total = sum(int(m) for m in _MULT.findall(out))
            printed = _TOTAL.search(out)
            if printed is None or int(printed.group(1)) != total \
                    or total != want["weyl_dim"]:
                return f"{name}: character total {total} is not " \
                       f"weyl_dim {want['weyl_dim']}", None
        return None, None
    if json.loads(out) != want["doc"]:
        return f"{name}: got {out.strip()}, want {want['doc']}", None
    return None, None


def check_pairs(pairs, heights: dict) -> list:
    """h(2 lambda) = 2^(N+1) h(lambda) for every pair whose two heights
    passed their own checks; `heights` maps an instance to (height, N).
    Returns the failures, one per doubled instance."""
    bad = []
    for base, doubled in pairs:
        if key(base) not in heights or key(doubled) not in heights:
            continue
        (h1, n), (h2, _) = heights[key(base)], heights[key(doubled)]
        if h2 != 2 ** (n + 1) * h1:
            bad.append(f"{key(doubled)}: h(2 lambda) != 2^(N+1) h(lambda)")
    return bad
