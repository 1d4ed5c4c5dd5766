"""Phase-space analysis utilities: cycle machinery, statistics, rendering.

``statistics`` and ``drawing`` depend on :mod:`repro.core`, which in turn
uses :mod:`repro.analysis.cycles`; to keep that dependency acyclic, this
package eagerly exposes only the cycle machinery and loads the higher-level
modules lazily on first attribute access.
"""

from repro.analysis.cycles import FunctionalGraph, scc_labels, strongly_connected_sizes

__all__ = [
    "FunctionalGraph",
    "scc_labels",
    "strongly_connected_sizes",
    "majority_ring_census",
    "find_linear_recurrence",
    "survey_all_rules",
    "survey_summary",
    "canonical_form",
    "functional_graphs_isomorphic",
    "phase_spaces_isomorphic",
    "is_linear_ca",
    "check_linear_structure",
    "gf2_rank",
    "PhaseSpaceStats",
    "phase_space_stats",
    "nondet_stats",
    "phase_space_dot",
    "nondet_phase_space_dot",
    "render_spacetime",
    "ascii_phase_space",
]

_LAZY = {
    "PhaseSpaceStats": "repro.analysis.statistics",
    "majority_ring_census": "repro.analysis.census",
    "find_linear_recurrence": "repro.analysis.census",
    "survey_all_rules": "repro.analysis.elementary",
    "survey_summary": "repro.analysis.elementary",
    "canonical_form": "repro.analysis.isomorphism",
    "functional_graphs_isomorphic": "repro.analysis.isomorphism",
    "phase_spaces_isomorphic": "repro.analysis.isomorphism",
    "is_linear_ca": "repro.analysis.linear",
    "check_linear_structure": "repro.analysis.linear",
    "gf2_rank": "repro.analysis.linear",
    "phase_space_stats": "repro.analysis.statistics",
    "nondet_stats": "repro.analysis.statistics",
    "phase_space_dot": "repro.analysis.drawing",
    "nondet_phase_space_dot": "repro.analysis.drawing",
    "render_spacetime": "repro.analysis.drawing",
    "ascii_phase_space": "repro.analysis.drawing",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.analysis' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
