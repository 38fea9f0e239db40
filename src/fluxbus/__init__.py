"""fluxbus: design and simulation of inductor-bus coupled rf-SQUID qubits.

Pipeline: circuit constants -> two-level qubit parameters (1-D flux
eigensolver) -> bus coupling design -> N-qubit always-on Ising Hamiltonian ->
encoded-pair logical gates executed as pulse schedules.
"""

from .bus import (
    BusParams,
    CurrentSolution,
    coupling_strength,
    effective_mutual,
    flux_quantization_residual,
    inductive_energy,
    max_qubits,
    pairwise_inductive_energy,
    residual_decay_time,
    solve_currents,
    weak_coupling_ratio,
)
from .compiler import (
    ControlParams,
    Gate,
    LogicalRegister,
    compile_circuit,
    encode,
    ideal_circuit_unitary,
    init_schedule,
    parse_circuit,
    verify_ifs,
)
from .evolve import (
    ProcessFidelityResult,
    PulseSchedule,
    PulseSegment,
    QuantumState,
    evolve_segment,
    fidelity,
    logical_process_fidelity,
    reduced_density_matrix,
    run_schedule,
    trace_distance,
)
from .spin import (
    SpinHamiltonianSpec,
    build_hamiltonian,
    bus_all_to_all,
    linear_chain_encoded,
)
from .squid import (
    EigenSolution,
    FluxGrid,
    NumericalError,
    SquidParams,
    TwoLevelParams,
    beta_l,
    calibrate_critical_current,
    extract_two_level,
    potential,
    solve_levels,
)

__version__ = "0.1.0"
