"""Quasi-periodic waves of cubic polyharmonic operators with periodic potentials.

The package resolves isolated spectral bands of ``(-Lap)^l + W`` on the
integer frequency lattice, feeds the band back through the cubic
nonlinearity ``W = V + sigma |psi|^2`` until self-consistent, and traces
isoenergetic surfaces in quasi-momentum space.  Everything is organized
around exact Fourier arithmetic on origin-centred coefficient boxes and
stably-evaluated energy gaps, so the tiny high-energy corrections survive the
huge absolute energy scales.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ContractError,
    NewtonFailure,
    NonConvergence,
    NumericalFailure,
    PolywaveError,
    ResonanceError,
)
from .lattice import (
    ModelContext,
    PeriodicFunction,
    abs_squared,
    cosine_potential,
    decompose,
    from_json_dict,
    momentum,
    multiply,
    star_norm,
    to_json_dict,
    truncate_support,
    zero_mean_shift,
)
from .nonres import (
    Anchor,
    Exponents,
    NonResonanceReport,
    SphereSampleStats,
    anchor,
    check_quasimomentum,
    contour_center,
    contour_radius,
    energy_gaps,
    exponents,
    k1_threshold,
    require_nonresonant,
    sample_nonresonant,
)
from .bloch import (
    BlochEigenpair,
    ContourSpec,
    diagonalize_oracle,
    series_eigenpair,
)
from .fixedpoint import (
    ContractionReport,
    FixedPointTrace,
    Solution,
    Wave,
    contraction_ratio,
    contraction_report,
    effective_perturbation,
    iterate,
    residual,
)
from .galerkin import RefinementComparison, compare, newton_solve
from .iso import (
    IsoSurfaceSample,
    SurfaceDraw,
    SurfaceScan,
    kappa_solve,
    reference_radius,
    sample_surface,
)
from .config import RunConfig, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
