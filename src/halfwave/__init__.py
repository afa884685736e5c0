"""Pseudospectral ground states of the coupled square-root-Laplacian system.

The package solves

    (-Delta)^{1/2} u + V0 u = g(v),
    (-Delta)^{1/2} v + V0 v = f(u)

on a truncated periodic line for nonlinearities of critical exponential
growth, by a two-level constrained scheme (antidiagonal-plus-ray
maximization inside sphere descent on the diagonal), and verifies the
candidates: Euler-Lagrange and manifold residuals, the dilation identity,
level window, amplitude/decay metrics, and semiclassical concentration of
the singularly perturbed variant.
"""

from .diagnostics import (
    DecayMetrics,
    LevelBoundCheck,
    MoserField,
    ResidualReport,
    decay_profile,
    level_bound_check,
    moser_field,
    moser_table,
    pohozaev_residual,
    recenter_pair,
)
from .energy import (
    PairField,
    energy,
    nehari_residuals,
    pair_inner,
    pair_norm,
    phi,
    weighted_inner,
    weighted_norm,
)
from .errors import (
    ConfigError,
    GridMismatch,
    HalfwaveError,
    InvalidField,
    NoAscent,
    OverflowGuard,
    UnderResolved,
    UnknownFamily,
)
from .families import (
    HypothesisAudit,
    NonlinearityFamily,
    audit_hypotheses,
    builtin_family,
    trudinger_moser_functional,
)
from .grids import (
    Field,
    Grid,
    SpectralExponent,
    apply_fractional_laplacian,
    integrate,
    l2_norm,
    linf_norm,
    read_field_binary,
    seminorm_sq,
    write_field_binary,
    write_field_csv,
)
from .nehari import (
    GroundStateResult,
    NehariPoint,
    SolverConfig,
    build_report,
    inner_maximize,
    outer_minimize,
    solve_ground_state,
)
from .semiclassical import (
    Potential,
    SweepResult,
    ThetaScan,
    autonomous_level_vs_theta,
    concentration_sweep,
    constant_potential,
    double_well,
    single_well,
    solve_rescaled,
)

__version__ = "0.1.0"
