"""Parameter identification for a reduced-order lithium-ion cell model.

Simulates terminal voltage from an applied current profile and identifies
the dynamic parameters (k_p, k_n, D_e) from measured series via Bayesian
optimization, benchmarked against gradient descent and particle swarm
optimization under a fixed evaluation budget.
"""

from .baselines import GdConfig, PsoConfig, gradient_descent, pso, random_search
from .bayesopt import (
    AcquisitionConfig,
    BoRunConfig,
    expected_improvement,
    run_bo,
)
from .bench import (
    BenchmarkReport,
    ExperimentConfig,
    ProfileSpec,
    default_config,
    export_report,
    fit_and_score,
    generate_profile,
    generate_synthetic_dataset,
    one_c_current,
    run_benchmark,
    run_method,
)
from .ecm import (
    DiscreteCellModel,
    FirstOrderLag,
    FixedTerms,
    SimulationResult,
    TrapezoidIntegrator,
    assemble,
    build_model,
    bulk_stoichiometry,
    c1_coefficient,
    electrolyte_potential,
    exchange_current_density,
    fixed_terms,
    kinetic_overpotential,
    ohmic_drop,
    simulate,
    simulate_detailed,
    surface_concentration,
)
from .errors import (
    CellIdentError,
    ConcentrationOutOfRange,
    ConfigError,
    DataError,
    DimensionMismatch,
    DuplicatePoint,
    NegativeVariance,
    NonPositiveStep,
    OutOfBox,
    SimulationDiverged,
    SingularKernel,
    SocWindowViolation,
    StepTooCoarse,
)
from .gp import GPPosterior, fit, se_kernel
from .identify import (
    IdentificationDataset,
    ObjectiveEvaluation,
    ParameterBox,
    VoltageFitObjective,
    default_box,
    load_dataset,
    save_dataset,
)
from .ocv import OcvCurve, synthetic_anode, synthetic_cathode
from .params import CellParameters, load_parameter_file, reference_cell
from .profiles import CurrentProfile, VoltageSeries, noise_cycle_profile, staircase_profile
from .runs import OptimizationResult, Recorder, export_trace
from .sampling import HaltonSampler, halton_points

__version__ = "0.1.0"
