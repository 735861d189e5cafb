"""sheetpde: a numerical laboratory for first-order stochastic PDEs driven
by Brownian-sheet noise.

Construct sheet samples and diagonal noise, build closed-form solutions
of the transport SPDE, verify them in the weak sense against smooth
bump test functions, estimate quadratic variation and Holder exponents
of the fields the existence criterion hinges on, and simulate forward
yield curves.
"""

__version__ = "0.1.0"

from .grids import GridError, GridSpec, ScalarField, make_grid
from .calculus import central_diff
from .coefficients import (CoeffFn, CoefficientSet, const, coord_sum, coord_t,
                           coord_x, polynomial)
from .bumps import TestFunction, bump_eval, interior_bump, standard_bump_battery
from .rng import philox_keys, stream_for_path
from .sheet import (DiagonalPath, RectRegion, SheetSample, SheetSource, diagonal_noise,
                    rect_measure, restrict_sheet, sample_sheet)
from .operators import WeakFormPlan
from .solver import (ExistenceCriterionError, InitialCurve, NumericalCriterionError,
                     Provenance, SolutionField, TransportPlan, flat_curve,
                     nelson_siegel_curve, polynomial_curve, require_criterion,
                     solve_ito_form, solve_transport, integral_identity_sides,
                     transport_solution)
from .diagnostics import (HolderReport, LineField, PartitionPlan, QVReport, build_Z,
                          build_Z_characteristic, equal_slab_partition, holder_estimate,
                          partition_product_plan, partition_sup_plan,
                          qv_characteristic_theoretical, qv_diagonal_theoretical,
                          qv_estimate, qv_report, qv_slicewise, qv_summary, qv_theoretical,
                          rect_measure_samples, run_partition_plans, separability_residual,
                          weak_bracket_field)
from .yield_curve import (CompareReport, EnsembleResult, YieldScenario,
                          compare_models, drift_decomposition_residual,
                          ms_simulate, sheet_increment_covariance, simulate_yield)

__all__ = [name for name in dir() if not name.startswith("_")]
