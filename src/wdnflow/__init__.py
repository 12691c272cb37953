"""wdnflow: water distribution network scenario simulator.

Generates SCADA sensor datasets from hydraulic and quality simulations under
configurable events (leaks, actuator changes, sensor faults, communication
outages) and uncertainty models, plus a residual-based event detector and a
step/reset control environment.
"""

from .errors import (
    WdnflowError, InpError, MalformedSectionError, UnsupportedUnitsError,
    UnsupportedOptionError, DanglingReferenceError, InvalidNetworkError,
    NonConvergenceError, DisconnectedDemandError, CurveFitError,
    NegativeConcentrationError, UnknownTargetError, UnknownSensorRefError,
    InsufficientDataError, ColumnMismatchError, EpisodeFinishedError,
    InvalidActionError, ConfigError,
)
from .network import (
    Junction, Reservoir, Tank, Pipe, Pump, Valve, Pattern, Curve,
    SimOptions, Network, Violation, validate, incidence, pattern_value,
    expand_pump_curve, networks_close,
)
from .inp import (
    parse_inp, parse_inp_report, write_inp, load_network, save_network,
    tokenize_inp,
)
from .hydraulics import (
    Controls, baseline_controls, HydraulicState, StateSeries,
    hazen_williams_headloss, fit_pump_curve, pump_head_gain, tank_step,
    solve_snapshot, EpsEngine, simulate_hydraulics,
)
from .quality import (
    QualitySettings, QualityState, decay, simulate_quality,
)
from .events import (
    SENSOR_TYPES, event_registry, EventWindow, LeakageEvent, ActuatorEvent,
    SensorFaultEvent, CommunicationEvent, leak_effective_area, leak_flow,
    leak_emitter_coef, apply_actuator_event, resolve_controls, winning_event,
    apply_sensor_fault, split_pipes_for_leaks,
)
from .uncertainty import (
    UNCERTAINTY_KINDS, uncertainty_registry, SeededStream, UncertaintyModel,
    perturb_scalar, perturb_series,
    apply_parameter_uncertainty,
)
from .scada import (
    SensorColumn, SensorPlacement, GroundTruthRecord, ScadaData,
    RowReader, extract_readings, RowCorruptor, corrupt,
)
from .detection import (
    SensorInterpolationDetector, DetectionResult, EventOutcome, Metrics,
    evaluate,
)
from .scenario import (
    ScenarioConfig, QualitySpec, RunReport, RunResult, to_seconds,
    config_from_json, config_to_json, load_config, save_config,
    config_digest, validate_scenario, build_runtime, run_scenario,
    write_outputs,
)
from .control import Action, StepOutcome, ScenarioEnv
from . import bundled

__version__ = "0.1.0"
