"""Phase-space simulator for a two-level atom coupled dispersively to a field mode.

Quantum (sphere) and classical (plane) subsystems are both represented by
Wigner-type distributions; the coupled dynamics is a flow on the product
phase space, so marginals, moments and quasi-probability densities follow
from deterministic quadrature.
"""

__version__ = "0.1.0"

from . import cartesian_wigner, hybrid_model, oscillator_hybrid
from . import quadrature, quantum_reference, su2_wigner

# Each physics module's __all__ is the one list of its public names; the
# package re-exports them all (cli and acceptance stay behind their modules).
_MODULES = (
    quadrature, su2_wigner, cartesian_wigner, hybrid_model, quantum_reference, oscillator_hybrid
)
__all__ = [name for module in _MODULES for name in module.__all__]
globals().update((name, getattr(module, name)) for module in _MODULES for name in module.__all__)
