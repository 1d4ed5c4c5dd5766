"""Ablation — SCC detection: SciPy compiled Tarjan vs. pure-Python Tarjan.

DESIGN.md Section 5 calls out proper-cycle detection via SCCs on the
change-edge digraph.  The workload here is the real one: the full
nondeterministic transition graph of a MAJORITY ring (2**n states,
~n * 2**n candidate edges).  Both implementations must agree exactly.
"""

import numpy as np
import pytest

from repro.analysis.cycles import scc_labels, scc_labels_python
from repro.core.automaton import CellularAutomaton
from repro.core.nondet import NondetPhaseSpace
from repro.core.rules import MajorityRule, XorRule
from repro.spaces.line import Ring


@pytest.fixture(scope="module")
def change_graph():
    ca = CellularAutomaton(Ring(12), MajorityRule())
    nps = NondetPhaseSpace.from_automaton(ca)
    srcs, dsts = nps._change_edges
    return srcs, dsts, nps.size


def test_scipy_scc(benchmark, change_graph):
    srcs, dsts, size = change_graph
    n_comp, labels = benchmark(lambda: scc_labels(srcs, dsts, size))
    sizes = np.bincount(labels, minlength=n_comp)
    assert sizes.max() == 1  # cycle-free: all SCCs are singletons


def test_python_tarjan(benchmark, change_graph):
    srcs, dsts, size = change_graph
    n_comp, labels = benchmark(lambda: scc_labels_python(srcs, dsts, size))
    assert n_comp == size  # every configuration its own component


def test_agreement_on_cyclic_graph(benchmark):
    """Both find the same component structure where cycles DO exist (XOR)."""
    ca = CellularAutomaton(Ring(8), XorRule())
    nps = NondetPhaseSpace.from_automaton(ca)
    srcs, dsts = nps._change_edges

    def both():
        a = scc_labels(srcs, dsts, nps.size)
        b = scc_labels_python(srcs, dsts, nps.size)
        return a, b

    (n1, l1), (n2, l2) = benchmark(both)
    assert n1 == n2
    # Partitions agree up to label permutation.
    remap: dict[int, int] = {}
    for x, y in zip(l1.tolist(), l2.tolist()):
        assert remap.setdefault(x, y) == y
