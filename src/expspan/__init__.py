"""High-precision toolkit for exponential systems {x^k e^(lambda_n x)}.

Public surface: domain types and sequence utilities (core, fixtures),
class diagnostics (lambda_analysis), canonical products and the windowed
even product (products), Gram systems with distances and biorthogonal
families (gram), Taylor-Dirichlet series (series), the moment solver
(moment), and the truncated infinite-order operator (carleson).
"""

from .core import (FlatIndex, Interval, MultiplicitySequence,
                   PrecisionContext, Sector, Violation, flat_position,
                   flatten, sector_contains, validate_sequence)
from .errors import (CapError, ConfigError, DomainError, ExpspanError,
                     PrecisionError, SequenceError)
from .fixtures import fixture, list_fixtures, load_sequence, sequence_from_spec
from .gram import (BiorthogonalFamily, DomainSpec, GramSystem, biorthogonal,
                   dual_norms, gram_matrix, inner_product, mixed_completeness,
                   monomial_exp_integral, recover_coefficients)
from .products import (LKFunction, LaurentCoeffs, ProductKind, blaschke_eval,
                       derivative_factor, eval_product, gnk_eval,
                       laurent_coeffs, lk_circle_minima, lk_eval, lk_function,
                       taylor_coeffs)
from .series import (TaylorDirichletSeries, bound_check, load_series,
                     series_from_obj, series_to_obj, star_abscissa, td_eval)
from .moment import (BesselReport, GrowthGateError, MomentData, MomentSolution,
                     bessel_diagnostic, growth_check, load_moments, solve)
from .carleson import (CarlesonOperator, apply_to_exponential, carleson_operator,
                       class_membership, counterexample, exp_monomial_derivative,
                       residual_on_span)

__version__ = "0.1.0"
