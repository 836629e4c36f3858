"""Flux-modulated transmon toolkit.

Simulation and planning for tunable transmons under one- and two-tone
flux modulation: time-averaged frequencies, dynamical sweet spots,
sideband spectra, parametric two-qubit gate plans, and closed-loop pulse
calibration against a virtual hardware model.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibrationOutcome,
    RamseyResult,
    Theta0Estimate,
    VirtualHardware,
    calibrate_and_verify,
    calibrate_theta0,
    calibrate_transfer_function,
    load_scenario,
    reference_transfer_function,
    save_scenario,
    virtual_ramsey,
)
from .errors import (
    CutoffTooSmall,
    DiagonalizationFailure,
    FitDivergence,
    FlatResponse,
    FluxmodError,
    InfeasibleError,
    NoFeasiblePoint,
    NonMonotoneRegion,
    NonPositiveCoupling,
    NoRoot,
    NumericalError,
    OutOfBand,
    TruncationTooCoarse,
    ValidationError,
    WrongSideband,
)
from .gates import (
    ChevronMap,
    CollisionReport,
    GatePlan,
    GateType,
    PairSpec,
    check_collisions,
    chevron_simulate,
    effective_coupling,
    enumerate_resonances,
    gate_duration,
    optimize_weight,
    plan_gate,
    resonance_fm,
    resonance_fm_mhz,
)
from .modulation import (
    SIDEBAND_TAIL,
    SWEET_SPOT_THRESHOLD_GHZ_PER_PHI0,
    AtlasResult,
    NoiseModel,
    OperatingPoint,
    SidebandSpectrum,
    avg_frequency_bessel,
    avg_frequency_harmonics,
    avg_frequency_slopes,
    avg_frequency_timedomain,
    dephasing_proxy,
    first_phase_harmonic,
    operating_point,
    pulse_slopes,
    sideband_weights,
    sweet_spot_atlas,
    sweet_spot_solve,
)
from .pulses import (
    BichromaticPulse,
    TransferFunction,
    apply_transfer_compensation,
    compensate_pulse,
    distort_pulse,
    scale_tones,
    wrap_angle,
)
from .transmon import (
    Device,
    DevicePair,
    FourierSeries,
    FrequencyCurve,
    LadderCurve,
    TransmonSpec,
    ej_eff,
    fit_spec,
    fourier_coefficients,
    frequency_curve,
    ladder_curve,
    load_device,
    transition_frequencies,
)
