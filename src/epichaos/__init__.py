"""Spatial SIR agents on a periodic square: the interacting jump process,
its deterministic kinetic limit, the field-driven one-particle process, and
the paired run that measures how fast the two descriptions agree as the
agent count grows.
"""

from .core import (AgentState, Label, ModelParams, SeedSpec, TorusGeometry,
                   VELOCITY_JUMP_RATE, advance_free, in_range, sample_velocity,
                   torus_distance, unit_vector, wrap)
from .initial import InitialCondition, InitialConditionError, uniform_sir
from .particle import (ConfigError, Counters, EnsembleState, Event, Trajectory,
                       apply_directed_infection, apply_pair_infection,
                       apply_recovery, run, sample_event, sample_initial, step,
                       total_event_rate)
from .kinetic import (DiscKernel, FieldTrajectory, GridError, GridSpec,
                      KineticField, field_from_initial, infection_intensity,
                      load_field, reaction_step, save_field, scattering_step,
                      solve, transport_step)
from .meanfield import (FieldOracle, OracleSpanError, constant_oracle, nf_at,
                        run_ensemble, step_agent)
from .coupling import (CoupledEnsemble, CoupledTrajectory, CouplingRates,
                       b_attempt, compute_rates, coupled_infection_event,
                       coupled_recovery, mismatch_bound, mismatch_fraction,
                       run_coupled, sample_coupled_initial)
from .observables import (EmpiricalMarginal, GridMismatchError,
                          discrete_transport_cost, empirical_marginal,
                          ensemble_aggregate, l1_distance,
                          pair_factorization_gap, wasserstein_discrete_upper)
from . import oracles

__version__ = "0.1.0"
