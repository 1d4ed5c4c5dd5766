"""Invariant oracles: the paper's theorems as executable fuzz checks.

Each oracle inspects the instance's *rule structure* to decide whether a
theorem applies, then verifies its conclusion against the ground-truth
sweep results (the scalar-oracle successor arrays — so a kernel bug is
reported by the differential checks, not misattributed to a theorem):

* ``oracle.sequential_cycle_free`` — Lemma 1/2: a threshold CA *with
  memory* (every local rule monotone and symmetric) has no proper cycle
  in its sequential (one-node-at-a-time) phase space, under any order.
* ``oracle.parallel_two_cycles`` — Theorem 1 (Goles–Olivos): the
  synchronous dynamics of a threshold CA over a symmetric neighborhood
  structure has only fixed points and two-cycles.
* ``oracle.linear_superposition`` — XOR/affine rules: the global map
  satisfies ``F(x) = F(0) ^ xor_{j in x} (F(e_j) ^ F(0))``.
* ``oracle.schedule_commutation`` — Macauley–McCammond order
  independence where predicted: single-node updates of nodes outside
  each other's windows commute exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.nondet import NondetPhaseSpace
from repro.core.phase_space import PhaseSpace
from repro.qa.generators import build_rule

__all__ = ["ORACLE_CHECKS", "rules_all_threshold", "rules_all_affine"]


def _distinct_tables(spec) -> list[np.ndarray]:
    """Truth tables of the distinct rule specs at the instance width."""
    width = spec.width
    seen: dict[bytes, np.ndarray] = {}
    for rspec in spec.rules:
        key = repr(sorted(rspec.items())).encode()
        if key not in seen:
            rule = build_rule(rspec, width)
            seen[key] = rule.truth_table(width).table
    return list(seen.values())


def rules_all_threshold(spec) -> bool:
    """True iff every local rule is monotone and symmetric at its width.

    Monotone symmetric Boolean functions are exactly the simple-threshold
    (k-of-n) rules the paper's lemmas quantify over.
    """
    from repro.core.boolean import BooleanFunction

    for table in _distinct_tables(spec):
        f = BooleanFunction(table)
        if not (f.is_monotone() and f.is_symmetric()):
            return False
    return True


def _affine_table(table: np.ndarray) -> bool:
    k = int(table.size).bit_length() - 1
    base = int(table[0])
    pred = np.full(table.size, base, dtype=np.uint8)
    for j in range(k):
        half = 1 << j
        pred[half : 2 * half] = pred[:half] ^ (int(table[half]) ^ base)
    return bool(np.array_equal(pred, table))


def rules_all_affine(spec) -> bool:
    """True iff every local rule is an XOR of inputs plus a constant."""
    return all(_affine_table(t) for t in _distinct_tables(spec))


# -- oracles -------------------------------------------------------------------


def check_sequential_cycle_free(inst):
    spec = inst.spec
    if not spec.memory or not rules_all_threshold(spec):
        return None
    nps = NondetPhaseSpace(inst.oracle_flip_words, inst.ca.n)
    if nps.has_proper_cycle():
        summary = nps.summary()
        return {
            "invariant": "sequential threshold CA are cycle-free (Lemma 1/2)",
            "proper_cycle_components": summary["proper_cycle_components"],
            "summary": summary,
        }
    return None


def check_parallel_two_cycles(inst):
    spec = inst.spec
    if not rules_all_threshold(spec):
        return None
    ps = PhaseSpace(inst.oracle_succ, inst.ca.n)
    lengths = ps.summary()["cycle_lengths"]
    bad = [int(length) for length in lengths if int(length) > 2]
    if bad:
        return {
            "invariant": (
                "parallel threshold CA have period <= 2 (Theorem 1)"
            ),
            "cycle_lengths": [int(length) for length in lengths],
            "offending_lengths": bad,
        }
    return None


def check_linear_superposition(inst):
    spec = inst.spec
    if not rules_all_affine(spec):
        return None
    succ = inst.oracle_succ
    n = inst.ca.n
    base = int(succ[0])
    pred = np.full(succ.size, base, dtype=np.int64)
    for j in range(n):
        half = 1 << j
        pred[half : 2 * half] = pred[:half] ^ (int(succ[half]) ^ base)
    if not np.array_equal(pred, succ):
        codes = np.flatnonzero(pred != succ)[:4]
        return {
            "invariant": "affine rules obey superposition",
            "codes": [int(c) for c in codes],
            "expected": [int(pred[c]) for c in codes],
            "got": [int(succ[c]) for c in codes],
        }
    return None


def check_schedule_commutation(inst):
    ca = inst.ca
    n = ca.n
    windows = []
    for i in range(n):
        k = int(ca._lengths[i])
        win = set(int(s) for s in np.asarray(ca._windows[i][:k]))
        win.discard(n)  # quiescent sentinel slot
        windows.append(win)
    node_succ = inst.oracle_node_succ
    for i in range(n):
        for j in range(i + 1, n):
            if i in windows[j] or j in windows[i]:
                continue
            ij = node_succ[j][node_succ[i]]
            ji = node_succ[i][node_succ[j]]
            if not np.array_equal(ij, ji):
                codes = np.flatnonzero(ij != ji)[:4]
                return {
                    "invariant": (
                        "independent single-node updates commute "
                        "(Macauley-McCammond)"
                    ),
                    "nodes": [int(i), int(j)],
                    "codes": [int(c) for c in codes],
                    "i_then_j": [int(ij[c]) for c in codes],
                    "j_then_i": [int(ji[c]) for c in codes],
                }
    return None


ORACLE_CHECKS = {
    "oracle.sequential_cycle_free": check_sequential_cycle_free,
    "oracle.parallel_two_cycles": check_parallel_two_cycles,
    "oracle.linear_superposition": check_linear_superposition,
    "oracle.schedule_commutation": check_schedule_commutation,
}
