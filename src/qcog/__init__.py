"""Quantum-probability modelling of sequential survey questions."""

from .feasibility import (FeasibilityReport, Polarity, Question, SurveyChain,
                          chain_feasibility, classical_consistency_check,
                          contraction_check, majorization_check,
                          order_effect_check)
from .framefit import FitResult, fit_chain, fit_transition, replay
from .hilbert import partial_trace
from .ingest import fixture_path, load_order_pair, load_survey
from .nosignal import (LocalSeries, apply_series, fifth_marginal,
                       no_signalling_check)
from .sequential import (InterferenceResult, interference_region_scan,
                         overlap_alpha, sequential_probability,
                         sequential_probability_via_states, spin_order_demo)
from .states import (DensityMatrix, ProbabilityVector, PureState,
                     degenerate_yes_probability, lueders_update,
                     outcome_probabilities, square_root_embed)

__version__ = "0.1.0"
