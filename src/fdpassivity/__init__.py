"""Frequency-domain passivity and small-signal stability toolkit for
converter-dominated power systems.

Everything works on 2x2 dq-frame admittances Y(s) in per unit.  The core
quantities are the passivity index (minimum eigenvalue of Y + Y^H), its
parametric and nodal sensitivities, component participations, and two
network-level stability readings: generalized Nyquist over the loop-gain
eigenloci and direct mode solving on det Y_n(s).
"""

from .errors import (
    DefectiveMatrixError,
    MalformedTableError,
    NoConvergenceError,
    NonFiniteError,
    NotDifferentiableError,
    NotHermitianError,
    NumericalFailure,
    OutOfRangeError,
    OutOfRegionError,
    RefineGridError,
    ScenarioParseError,
    ScenarioValidationError,
    SingularMatrixError,
    ToolError,
    UnknownBusError,
    UnknownComponentError,
    ValidationFailure,
    ZeroDenominatorError,
)
from .numerics import (
    GeneralEigen,
    HermitianEigen,
    adjugate,
    determinant,
    general_eigen,
    hermitian_eigen,
    inverse,
    solve,
    trace,
)
from .devices import (
    BlackBoxModel,
    DeviceModel,
    GflConverterL1,
    GflParams,
    GfmConverterL1,
    GfmParams,
    OperatingPoint,
    RlBranch,
    ShuntCapacitor,
    TheveninGrid,
    blackbox_model,
    gfl_admittance_l1,
    gfm_admittance_l1,
    param_derivative,
    read_blackbox_table,
    rl_branch_admittance,
    rl_impedance,
    sample_model,
    shunt_c_admittance,
    thevenin_grid,
    write_blackbox_table,
)
from .passivity import (
    IndexSweep,
    PredictionCurves,
    SensitivitySeries,
    first_order_prediction,
    hermitian_part,
    index_sweep,
    is_degenerate,
    log_omega_grid,
    param_passivity_sensitivity,
    passivity_eigen,
    passivity_index,
)
from .network import (
    Branch,
    ComponentRef,
    Device,
    Network,
    NodalSpectrum,
    ParticipationTable,
    Shunt,
    assemble_branches,
    assemble_devices,
    assemble_net,
    assemble_nodal,
    assemble_shunts,
    closed_loop_impedance,
    component,
    components,
    directional_nodal_sensitivity,
    incidence,
    nodal_param_sensitivity,
    nodal_passivity_sweep,
    participation_sweep,
)
from .stability import (
    FdParticipation,
    GncVerdict,
    LoopGainLoci,
    ModeEstimate,
    ModeScan,
    fd_pf,
    gnc,
    gnc_auto,
    loop_gain,
    mode_admittance_sensitivity,
    mode_scan,
    refine_mode,
    xi_coefficient,
)
from .io_cli import (
    PlotSpec,
    ResultTable,
    Scenario,
    emit_csv,
    emit_svg_plot,
    fixture_path,
    load_scenario,
    read_result_csv,
    run,
)

__version__ = "0.1.0"
