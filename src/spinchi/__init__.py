"""Exact Euler characteristics of level-4 congruence subgroups of Spin(m, n).

The top-level namespace re-exports the main entry points; the submodules
hold the machinery:

* ``exactq``   exact rationals, pi-power scalars, Bernoulli/zeta/L values
* ``clifford`` Clifford algebras, the spin condition, 2-adic exp/log
* ``qforms``   Hilbert symbols, Hasse invariants, Witt indices, genus
* ``ggroups``  Weyl data, finite spin group orders, compact dual volumes
* ``euler``    the Euler characteristic itself, closed and adelic
* ``profinite`` commensurability reports and theorem sweeps
* ``oracles``  brute-force referees for ``spinchi verify`` and the tests
* ``cli``      command-line interface (``python -m spinchi.cli`` or ``spinchi``)

Only ``compare`` runs ``profinite``, and only ``verify`` runs ``clifford`` and
``oracles``.  The three sit in ``sys.modules`` as lazy modules, run when
imported by name (``from spinchi import profinite``) or first used, and
``profinite``'s names here resolve on first use, so ``dataclasses`` waits too.
"""
import importlib.util
import sys

from .euler import (
    EulerResult,
    L2Profile,
    adelic_assembly_exact,
    adelic_assembly_float,
    chi_closed,
    chi_sign,
    l2_profile,
    r_factor,
    s_arithmetic_sign,
)
from .exactq import FactoredInteger, PiExact
from .ggroups import SpinGroupDescriptor, spin_order_fp, vol_compact_dual, weyl_ratio
from .qforms import (
    DiagonalForm,
    Place,
    hasse_invariant,
    hilbert_symbol,
    is_isotropic_rational,
    qp_equivalent,
    witt_index,
    witt_index_rational,
)

__version__ = "0.1.0"

_LAZY = ("clifford", "oracles", "profinite")
for _name in _LAZY:  # LazyLoader runs a module's code on its first attribute access
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    importlib.util.LazyLoader(_spec.loader).exec_module(sys.modules[_spec.name])


def __getattr__(name: str):
    if name in _LAZY:  # an import by name runs the module now, as for any submodule
        module = sys.modules[f"{__name__}.{name}"]
        vars(module)  # the first attribute access runs a lazy module's code
        return module
    if name in __all__:  # only profinite's names in __all__ are unbound here
        return getattr(__getattr__("profinite"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CommensurabilityReport",
    "DiagonalForm",
    "EulerResult",
    "FactoredInteger",
    "L2Profile",
    "PiExact",
    "Place",
    "SpinGroupDescriptor",
    "adelic_assembly_exact",
    "adelic_assembly_float",
    "chi_closed",
    "chi_sign",
    "hasse_invariant",
    "hilbert_symbol",
    "is_isotropic_rational",
    "l2_profile",
    "profinitely_commensurable",
    "qp_equivalent",
    "r_factor",
    "s_arithmetic_sign",
    "spin_order_fp",
    "sweep_euler_not_profinite",
    "sweep_theorem_frank_dim",
    "vol_compact_dual",
    "weyl_ratio",
    "witt_index",
    "witt_index_rational",
]
