"""Numerical laboratory for inverse mean curvature flow in HH^n.

Star-shaped hypersurfaces invariant under the Hopf S^3 action reduce to
one-dimensional radial profiles; this package evolves them by inverse
mean curvature flow, monitors the quantities that control long-time
behavior, and analyzes the sub-Riemannian conformal limit.
"""

# set before the submodule imports: harness writes it into report.json
__version__ = "0.1.0"

from .ambient import (apply_J, curvature_tensor, ricci_check, sectional,
                      verify_ambient)
from .config import ConfigError, ExperimentConfig, parse_config
from .flow import (DiagnosticsRecord, FlowError, FlowState,
                   MeanConvexityLost, NonFiniteRecord, NonFiniteState,
                   StepControl, StiffnessError, initial_profile, run_flow,
                   step)
from .geometry import (Grid, KernelWork, ProfileDerivatives, RadialProfile,
                       cached_grid, kernel, profile_derivatives)
from .harness import ExperimentResult, run_experiment, sweep, verify_ambient_report
from .limits import (ConformalFactor, ConstancyVerdict, constancy_verdict,
                     extract_conformal_factor, fit_decay_rate, limit_Q)
