"""Finite volume solver for a reversible two-species reaction-diffusion
system and its fast-reaction limit, with structure-preservation diagnostics.
"""

from .diagnostics import (DiagnosticsReport, compare_to_limit, conserved_mass,
                          diagnostics_report, gradient_energy, l1_distance,
                          lyapunov, lyapunov_series, reaction_defect,
                          translate_seminorms)
from .errors import ConfigError, ConsistencyError, NonConvergenceError
from .experiment import (ExperimentConfig, emit_plot_data, load_config,
                         preset_config, preset_names, run, sweep)
from .kinetics import (Kinetics, RateLaw, dimerisation_kinetics,
                       kinetics_from_dict, power_law_kinetics)
from .limit import WState, integrate_w, project_initial_w, step_w, write_w_csv
from .mesh import (Mesh, TimeGrid, build_time_grid_ramped,
                   build_time_grid_uniform, build_uniform_1d,
                   write_mesh_csv)
from .scheme import (SolverConfig, State, StepStats, Trajectory, integrate,
                     ode_upper_solution, project_initial, residual, step,
                     write_stats_csv, write_trajectory_csv)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConsistencyError", "NonConvergenceError",
    "Mesh", "TimeGrid", "build_uniform_1d", "build_time_grid_uniform",
    "build_time_grid_ramped", "write_mesh_csv",
    "RateLaw", "Kinetics", "dimerisation_kinetics", "power_law_kinetics",
    "kinetics_from_dict",
    "State", "StepStats", "SolverConfig", "Trajectory", "project_initial",
    "residual", "step", "integrate", "ode_upper_solution",
    "write_trajectory_csv", "write_stats_csv",
    "WState", "project_initial_w", "step_w", "integrate_w",
    "write_w_csv",
    "conserved_mass", "l1_distance", "gradient_energy", "reaction_defect",
    "lyapunov", "lyapunov_series", "compare_to_limit", "translate_seminorms",
    "DiagnosticsReport", "diagnostics_report",
    "ExperimentConfig", "load_config", "preset_config", "preset_names",
    "run", "sweep", "emit_plot_data",
    "__version__",
]
