"""Worst-case efficient stimulus sequences for event-related fMRI.

The measurement model is generalized least squares with AR(1) noise and
polynomial drift; the response to each stimulus type is a scaled common
response curve with unknown shape parameters.  Designs are judged by the
A-criterion of the amplitude information matrix, minimized over amplitude
directions and curve parameters (worst case) or normalized by locally optimal
values (worst-case relative efficiency).  A knowledge-based genetic algorithm
searches the design space.
"""

from .designs import (Design, block_design, constrained_random, cyclic_design,
                      delta_t, design_matrix, extend_m_sequence,
                      find_primitive_poly, load_design, m_sequence,
                      m_sequence_design, random_design, relabel, save_design)
from .criteria import (LocalOptTable, ParamGrid, angles_to_theta,
                       full_theta_grid, make_grid, min_re, min_rg, p_grid,
                       relative_efficiency, theta_to_angles, theta0_grid,
                       zero_theta)
from .errors import (ConfigurationError, GenerationError, InputParseError,
                     MmdesignError, NumericalError, SamplingError,
                     TableFormatError, TableLookupError)
from .glsmodel import (DriftSpec, Evaluator, NoiseSpec, drift_matrix,
                       evaluator_for, info_matrix, phi_a, phi_from_info,
                       projection, whitening_matrix)
from .hrf import HrfParams, default_hrf_length
from .search import (GaConfig, SearchResult, build_local_opt_table, ga_search,
                     maximin_objective, mme_objective)

__version__ = "0.1.0"

__all__ = [
    "Design", "block_design", "constrained_random", "cyclic_design", "delta_t",
    "design_matrix", "extend_m_sequence", "find_primitive_poly", "load_design",
    "m_sequence", "m_sequence_design", "random_design", "relabel", "save_design",
    "LocalOptTable", "ParamGrid", "angles_to_theta", "full_theta_grid",
    "make_grid", "min_re", "min_rg", "p_grid",
    "relative_efficiency", "theta_to_angles", "theta0_grid", "zero_theta",
    "ConfigurationError", "GenerationError", "InputParseError", "MmdesignError",
    "NumericalError", "SamplingError", "TableFormatError", "TableLookupError",
    "DriftSpec", "Evaluator", "NoiseSpec", "drift_matrix", "evaluator_for",
    "info_matrix", "phi_a", "phi_from_info", "projection", "whitening_matrix",
    "HrfParams", "default_hrf_length",
    "GaConfig", "SearchResult", "build_local_opt_table", "ga_search",
    "maximin_objective", "mme_objective",
    "__version__",
]
