"""Coherence as permutation-averaged evolution distance.

Numerics for an affinity-based coherence measure, the closed form of
the distance between a state and its evolutions averaged over an
isospectral Hamiltonian family, the open-system (channel) version of
that bound, instantaneous-speed identities, and work-extraction
ceilings for a driven battery qubit.  All of it is built to be checked:
every closed form ships with an independent brute-force oracle and a
verification suite (see the ``coherence-speed`` CLI).
"""

from .avgdist import (
    BRUTE_FORCE_CAP,
    AvgDistanceResult,
    a_coefficient,
    avg_distance_bruteforce,
    avg_distance_closed,
    b_coefficient,
    benchmark_overlap_check,
    l1_upper_bound_check,
)
from .battery import (
    BatteryConfig,
    BatteryRun,
    avg_extracted_work,
    drive_coherence,
    qudit_battery_bound,
    simulate_battery,
    spin_operator,
    work_bound,
)
from .channels import (
    EqualityGapReport,
    KrausChannel,
    StinespringDilation,
    apply_kraus,
    dephasing_channel,
    dilate,
    equality_gap_analysis,
    load_channel,
    permuted_channel_apply,
    qutrit_equality_channel,
    random_channel,
    save_channel,
    theorem3_bound,
)
from .coherence import (
    c_half,
    c_l1,
    closest_incoherent,
    coherence_vector,
    is_maximally_coherent,
    is_refinement,
)
from .dynamics import (
    HamiltonianPath,
    Trajectory,
    energy_uncertainty,
    evolve,
    finite_difference_speed,
    gap_squared_matrix,
    instantaneous_speed,
    qubit_closed_form,
)
from .linalg import (
    OrthogonalDecomposition,
    SpectralHamiltonian,
    haar_random_state,
    hermitian_eig,
    matrix_sqrt_psd,
    orbit_levels,
    orbit_operators,
    partial_trace,
    pure_density,
    random_density,
    random_hermitian,
    random_unitary,
    tensor,
    unitary_exp,
)
from .metrics import (
    QslBounds,
    affinity,
    bures_angle,
    d_affinity_half,
    fidelity,
    hellinger,
    qsl_bounds,
)
from .report import format_csv, format_json, render_report
from .verification import SUITES, CheckResult, run_suite

__version__ = "0.1.0"
