"""Grid-based optimal filtering with higher-order parameter-derivative jets."""

from .multiindex import (
    IndexSet,
    MultiIndex,
    count_upto,
    enumerate_indices,
    leq,
    multinomial,
    unit_selector,
)
from .grid import (
    GridMeasure,
    StateGrid,
    VectorMeasure,
    embed,
    measure_distance,
    tv_norm,
)
from .models import (
    AssumptionConstants,
    ModelSpec,
    Trajectory,
    TruncatedNonlinearModel,
    assumption_constants,
    kernel_matrix,
    simulate,
)
from .filtering import (
    KernelCache,
    MassInvariantError,
    PredictiveMassError,
    filter_iterate,
    filter_step,
    filter_step_with_scalars,
)
from .loglik import (
    LogLikJet,
    RateEstimate,
    RmlTrace,
    avg_loglik_rate,
    loglik_jet,
    rml_demo,
)
from .oracle import (
    FDScheme,
    StationaryLaw,
    fd_derivative,
    oracle_filter,
    oracle_log_likelihood,
    stationary_law,
)
from .experiments import (
    DecayCurve,
    ErgodicityProbe,
    IdentityReport,
    PhiSpec,
    bounded_lipschitz_phi,
    component_tv_phi,
    derivative_identity_sweep,
    ergodicity_experiment,
    forgetting_experiment,
    log_linear_fit,
    posterior_mean_phi,
    state_projection_phi,
)
from .seeding import NormalStreams, labeled_rng, labeled_seed

__version__ = "0.1.0"
