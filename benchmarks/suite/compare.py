"""Compare two benchmark records under the bounds in ``BENCHMARK.json``.

    python3 benchmarks/suite/compare.py A.json B.json

``A`` and ``B`` are ``--out`` files of ``python -m benchmarks.suite``.  For
every workload and end-to-end metric this prints a verdict for B against A:
``ok``, ``regressed`` (worse by more than the metric's bound) or
``unresolved`` (either side's interquartile range, as a share of its median,
is wider than the bound).  When both records used the same seed and sizes it
also checks that every exact count matches.  Exits 1 on a regression or a
count mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _spread(side: dict) -> float:
    return (side["q3"] - side["q1"]) / side["value"] if side["value"] else float("inf")


def verdict(a: dict, b: dict, bound: float, better: str) -> tuple[str, float]:
    """``(verdict, relative change of B against A)`` for one metric."""
    change = (b["value"] - a["value"]) / a["value"] if a["value"] else float("inf")
    if _spread(a) > bound or _spread(b) > bound:
        return "unresolved", change
    worse = -change if better == "higher" else change
    return ("regressed" if worse > bound else "ok"), change


def _count_mismatches(a: dict, b: dict) -> list[str]:
    out = []
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            out.append(f"{key}: {a.get(key)!r} != {b.get(key)!r}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: compare.py A.json B.json")
    spec = json.loads(SPEC.read_text())
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    same_inputs = (a["seed"], a["smoke"]) == (b["seed"], b["smoke"])
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            print(f"{workload:15} missing from {'A' if wa is None else 'B'}")
            failed = True
            continue
        for m in spec["end_to_end"]:
            ma, mb = wa["metrics"][m["name"]], wb["metrics"][m["name"]]
            result, change = verdict(ma, mb, m["bound"], m["better"])
            failed |= result == "regressed"
            print(
                f"{workload:15} {m['name']:14} {result:10} "
                f"A {ma['value']:.6g} B {mb['value']:.6g} {m['unit']} "
                f"({change:+.1%}; spread A {_spread(ma):.1%} B {_spread(mb):.1%}; "
                f"bound {m['bound']:.0%})"
            )
        if not same_inputs:
            continue
        mismatches = _count_mismatches(wa["counts"] or {}, wb["counts"] or {})
        ta, tb = a["trace"].get(workload), b["trace"].get(workload)
        if ta and tb:
            mismatches += _count_mismatches(ta["exact"], tb["exact"])
        for line in mismatches:
            print(f"{workload:15} count mismatch {line}")
        failed |= bool(mismatches)
    if not same_inputs:
        print("exact counts not compared: the records used different seeds or sizes")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
