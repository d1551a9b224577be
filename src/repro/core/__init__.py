"""Population analysis — the paper's contribution.

- :mod:`~repro.core.transform` — transform matrices **T**.
- :mod:`~repro.core.fixed_point` — solvers for ``e T = a e``.
- :mod:`~repro.core.population` — :class:`PopulationModel`, the API.
- :mod:`~repro.core.aging` — per-depth occupancy and the area-weighted
  correction.
- :mod:`~repro.core.phasing` — log-periodic oscillation analysis.
- :mod:`~repro.core.fagin` — the exact statistical baseline.
- :mod:`~repro.core.pmr_model` — population analysis of the PMR tree.
"""

from .._lazy import exports

#: Public names, by the submodule that defines them (``module:name``
#: for an alias); each loads on first use, see :mod:`repro._lazy`.
_EXPORTS = {
    "AreaWeightedModel": "aging",
    "DepthRow": "aging",
    "aging_gradient": "aging",
    "calibrated_area_model": "aging",
    "depth_occupancy_table": "aging",
    "mean_area_by_occupancy": "aging",
    "Density": "density_model",
    "TruncatedGaussianDensity": "density_model",
    "UniformDensity": "density_model",
    "density_average_occupancy": "density_model:average_occupancy",
    "density_expected_leaf_census": "density_model:expected_leaf_census",
    "density_occupancy_series": "density_model:occupancy_series",
    "PopulationDynamics": "dynamics",
    "StochasticPopulation": "dynamics",
    "generation_span": "dynamics",
    "split_outcome_probabilities": "dynamics",
    "statistical_average_occupancy": "fagin:average_occupancy",
    "statistical_expected_distribution": "fagin:expected_distribution",
    "expected_leaf_profile": "fagin",
    "expected_total_leaves": "fagin",
    "statistical_occupancy_by_depth": "fagin:occupancy_by_depth",
    "statistical_occupancy_series": "fagin:occupancy_series",
    "MAX_PLANNED_CAPACITY": "planning",
    "PlanValidation": "planning",
    "StoragePlanner": "planning",
    "directional_derivative": "sensitivity",
    "occupancy_gradient_wrt_matrix": "sensitivity",
    "pmr_occupancy_error_bar": "sensitivity",
    "pmr_occupancy_sensitivity": "sensitivity",
    "SteadyState": "fixed_point",
    "residual": "fixed_point",
    "solve": "fixed_point",
    "solve_analytic": "fixed_point",
    "solve_eigen": "fixed_point",
    "solve_fixed_point_iteration": "fixed_point",
    "solve_newton": "fixed_point",
    "OscillationFit": "phasing",
    "damping_ratio": "phasing",
    "dominant_period": "phasing",
    "extrema_spacing": "phasing",
    "fit_oscillation": "phasing",
    "log_periodogram": "phasing",
    "oscillation_period": "phasing",
    "PMRPopulationModel": "pmr_model",
    "crossing_probability_for": "pmr_model",
    "estimate_crossing_probability": "pmr_model",
    "pmr_transform_matrix": "pmr_model",
    "ModelComparison": "population",
    "PopulationModel": "population",
    "FixedPointCandidate": "uniqueness",
    "enumerate_fixed_points": "uniqueness",
    "is_irreducible": "uniqueness",
    "verify_unique_positive": "uniqueness",
    "post_split_average_occupancy": "transform",
    "recursion_probability": "transform",
    "row_sums": "transform",
    "row_sums_exact": "transform",
    "split_distribution": "transform",
    "split_row": "transform",
    "transform_matrix": "transform",
    "transform_matrix_exact": "transform",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = exports(__name__, _EXPORTS)
