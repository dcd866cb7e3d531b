"""Exact simulator of order-rearrangement encrypted quantum key distribution.

The package splits into a quantum-state engine with dense and Bell-label
registers (:mod:`~coreqkd.quantum`),
the classical rearrangement layer with its delay-loop device model
(:mod:`~coreqkd.rearrange`), the transport channel (:mod:`~coreqkd.channel`),
pluggable adversary strategies (:mod:`~coreqkd.adversary`), the session state
machines (:mod:`~coreqkd.protocol`) and a Monte Carlo experiment harness with
a small CLI (:mod:`~coreqkd.harness`, :mod:`~coreqkd.cli`).
"""

from .adversary import (
    EveLog,
    EveStrategy,
    eve_bell_probe,
    exact_guess_attack_pair_distributions,
    exact_guess_attack_pair_errors,
)
from .channel import depolarize, transmit
from .harness import (
    ConfigError,
    ExperimentSpec,
    ReportRow,
    SweepAxes,
    emit_report,
    paper_table,
    parse_experiment,
    parse_report,
    run_experiment,
    trial_seed,
    write_report,
)
from .protocol import (
    InsufficientSiftError,
    PairRecord,
    RejectedTranscriptError,
    SessionConfig,
    SessionTranscript,
    VerdictReport,
    alice_prepare_block,
    extract_raw_key,
    guess_probability,
    run_bootstrap_session,
    run_keyed_session,
)
from .quantum import (
    BellState,
    Direction,
    LabelRegister,
    StateVector,
    bell_measure,
    bell_outcome_probabilities,
    bell_project,
    bell_state,
    computational_state,
    correlation_operator,
    density,
    expectation,
    mismatched_pair_density,
    partial_trace_register,
    pauli_along,
    random_direction,
    tensor,
)
from .rearrange import (
    CollisionError,
    ControlKey,
    CoreOp,
    CoreOpSet,
    DeviceModel,
    GroupConfig,
    StuckError,
    SwitchSchedule,
    UnrealizableError,
    apply_core,
    invert_core,
    op_index_for_block,
    perm_to_schedule,
    schedule_to_perm,
)

__version__ = "0.1.0"
