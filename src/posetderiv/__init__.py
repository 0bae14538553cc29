"""Exact outer-derivation and solubility analysis for finite posets.

The package decides, over exact arithmetic, whether the incidence
algebra of a finite poset admits outer derivations for a given
coefficient ring, classifies the poset as soluble, defective or
inconclusive through the torsion of its first order-complex homology,
and evaluates combinatorial sufficient conditions.

Every name in ``__all__`` is re-exported lazily (PEP 562): importing the
package or one submodule loads only what that needs, and each access
reads the name from its submodule, so nothing is cached here.
``posetderiv.homology`` is the function ``homology.homology``, never the
submodule of the same name; reach the submodule through
``importlib.import_module("posetderiv.homology")`` or
``from posetderiv.homology import ...``.
"""

import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "errors": "CycleError DimensionError DuplicateError InputError "
    "NotComparableError NotReducedError PosetderivError SizeLimitError "
    "UnknownElementError UnknownFixtureError UnsupportedRingError",
    "poset": "Crown Poset ShapeStats beat_points canonical_form core find_crowns "
    "shape_stats transitive_reduction",
    "linalg": "RATIONALS IntegerMatrix Ring SmithDecomposition "
    "kernel_basis mod_ring prime_field rank_from_divisors rank_over "
    "ring_from_string smith_divisors smith_normal_form solve_linear",
    "homology": "ConclusiveVerdict HomologySummary OrderComplex boundary_matrix "
    "classify euler_characteristic full_order_complex homology order_complex",
    "derivations": "ConsistencyMatrix CycleWalk ParallelPair TransitiveFunction "
    "circulation consistency_matrix from_cover_values has_outer_derivation "
    "is_potential outer_witness parallel_pairs routes_agree",
    "criteria": "Co18Result CriteriaReport CrownReport co18_bound co18_threshold "
    "criteria_report crown_obstruction_report crowns_without_bounds "
    "table2_conflict table2_lookup",
    "survey": "SweepReport enumerate_posets sweep",
    "report": "analysis_report canonical_sha256 poset_from_json",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Loading the submodule binds it here, which would shadow the function.
        if name != "homology" or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
