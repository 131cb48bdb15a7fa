"""Exact Euler characteristics of level-4 congruence subgroups of Spin(m, n).

The top-level namespace re-exports the main entry points; the submodules
hold the machinery:

* ``exactq``   exact rationals, pi-power scalars, Bernoulli/zeta/L values
* ``clifford`` Clifford algebras, the spin condition, 2-adic exp/log
* ``qforms``   Hilbert symbols, Hasse invariants, Witt indices, genus
* ``ggroups``  Weyl data, finite spin group orders, compact dual volumes
* ``euler``    the Euler characteristic itself, closed and adelic
* ``profinite`` commensurability reports and theorem sweeps
* ``cli``      command-line interface (``python -m spinchi.cli`` or ``spinchi``)
"""

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
from .profinite import (
    CommensurabilityReport,
    profinitely_commensurable,
    sweep_euler_not_profinite,
    sweep_theorem_frank_dim,
)
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
