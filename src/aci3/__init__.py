"""Hilbert functions and graded Betti tables of codimension-3 almost
complete intersection artinian algebras, with exact cross-checking oracles.

The public names below resolve on first use (PEP 562): ``import aci3`` loads
no kernel module, and ``aci3.<name>`` loads only the module that defines
``name``.  Nothing is cached here, so a replaced module attribute (a tracer,
a test stub) is what ``aci3.<name>`` returns.
"""

from importlib import import_module

__version__ = "0.1.0"

# Module -> the public names it defines.
_EXPORTS = {
    "cas": ("export_cas", "script_is_balanced"),
    "classify": ("AciFamily", "AciTable", "GaetaResult", "PosetEdge", "TablePoset",
                 "allowed_couples", "cancel_ah", "cancel_couple", "d_star", "delta_high",
                 "delta_low", "enumerate_tables", "gaeta_check", "maximal_table", "t_max"),
    "errors": ("DomainError",),
    "hilbert": ("BettiTable", "HilbertFunction", "as_delta", "ci_hilbert", "difference",
                "hilbert_from_betti", "koszul_table", "min_generator_bound", "recognize_ci",
                "socle_degree", "theta_of"),
    "intmat": (),
    "koszul": ("betti_numbers", "strand_matrices", "verify_resolution"),
    "liaison": ("LinkDatum", "MappingCone", "ci_link_identity", "link_hilbert",
                "mapping_cone_twists"),
    "monomials": ("Monomial", "MonomialIdeal", "aci_construction", "ci_type", "colon",
                  "hilbert_function", "intersect", "is_artinian", "minimalize",
                  "rigid_witness", "standard_monomials"),
    "pfaffians": ("AlternatingMatrix", "PolyRing", "SparsePolynomial", "WitnessIdeals",
                  "alt_matrix", "pf_squared_equals_det", "pfaffian", "pfaffian_int",
                  "pfaffian_last_row", "sub_pfaffians", "witness_ideals_a3_h5", "witness_tables"),
    "verify": ("CheckResult", "Report", "verify_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    # ``aci3.koszul`` and its like work without importing the submodule first
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
