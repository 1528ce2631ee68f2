"""Spatial SIR agents on a periodic square: the interacting jump process,
its deterministic kinetic limit, the field-driven one-particle process, and
the paired run that measures how fast the two descriptions agree as the
agent count grows.
"""

from .core import Label, ModelParams, SeedSpec, in_range, wrap
from .initial import InitialCondition, InitialConditionError, uniform_sir
from .particle import (ConfigError, Counters, EnsembleState, Trajectory, replica_counts,
                       replica_passes, run, sample_initial, sample_replicas)
from .kinetic import (DiscKernel, FieldTrajectory, GridError, GridSpec,
                      KineticField, field_from_initial, infection_intensity,
                      load_field, save_field, solve)
from .meanfield import (FieldOracle, OracleSpanError, constant_oracle, ensemble_counts,
                        run_ensemble)
from .coupling import (PASS_AGENTS, CoupledEnsemble, CoupledTrajectory, b_attempt,
                       coupled_counts, mismatch_bound, mismatch_fraction, run_coupled)
from .observables import (EmpiricalMarginal, empirical_marginal, ensemble_aggregate,
                          l1_distance, pair_factorization_gap)
from . import oracles

__version__ = "0.1.0"
