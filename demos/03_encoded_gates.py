"""Logical qubits that hide from an always-on coupling.

Two physical qubits with opposite flux states encode one logical qubit whose
collective circulating current vanishes: the fixed couplings cannot see it.
This script initializes a register, shows the interaction-free property,
compiles a CPHASE into its flip / evolve / flip pulse schedule, and runs a
Bell-state circuit in both the ideal and the physical control model.
"""

import math

import numpy as np

import fluxbus as fb

reg = fb.LogicalRegister.default(2)

print("=== initialization ===")
sched = fb.init_schedule(reg, fb.ControlParams(mode="physical"))
out = fb.run_schedule(fb.QuantumState.basis(reg.n_physical, 0), sched)
print(f"{len(sched.segments)} sequential pi flips take {sched.duration_ns:.3f} ns")
print(f"fidelity with |0_L 0_L> = {fb.fidelity(fb.encode('00', reg), out):.9f}")

print("\n=== the interaction-free property ===")
spec = fb.bus_all_to_all(4, 25.0)
print("residual of the inter-pair coupling applied to states (units of J):")
print(f"  encoded |01>:                 {fb.verify_ifs(fb.encode('01', reg), spec):.1f}")
print(f"  two flipped pairs |uu,uu>:    {fb.verify_ifs(fb.QuantumState.basis(4, 0), spec):.1f}")
print(f"  all qubits along +x:          "
      f"{fb.verify_ifs(fb.QuantumState(np.full(16, 0.25, dtype=complex)), spec):.1f}")

print("\n=== a CPHASE pulse schedule ===")
cphase = fb.parse_circuit("CPHASE 0,1")
params = fb.ControlParams(delta_ghz=2.6, epsilon_ghz=2.7, j_mhz=25.0, mode="physical")
print("segment  kind            duration (ns)")
for k, seg in enumerate(fb.compile_circuit(cphase, reg, params).segments):
    if seg.delta_ghz is not None:
        kind = f"flip qubits {np.nonzero(seg.delta_ghz)[0].tolist()}"
    elif seg.epsilon_ghz is not None:
        kind = f"z-correct   {np.nonzero(seg.epsilon_ghz)[0].tolist()}"
    else:
        kind = "interaction wait"
    print(f"{k:7d}  {kind:<22} {seg.duration_ns:8.4f}")
cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
for mode in ("ideal", "physical"):
    sched = fb.compile_circuit(cphase, reg, fb.ControlParams(mode=mode))
    res = fb.logical_process_fidelity(sched, cz, reg)
    print(f"{mode:>8} mode: process fidelity {res.fidelity:.6f}, leakage {res.max_leakage:.2e}")

print("\n=== Bell state circuit ===")
circuit = fb.parse_circuit("H 0\nCNOT 0,1\n")
for mode in ("ideal", "physical"):
    sched = fb.compile_circuit(circuit, reg, fb.ControlParams(mode=mode))
    out = fb.run_schedule(fb.encode("00", reg), sched)
    bell = fb.QuantumState(
        (fb.encode("00", reg).amplitudes + fb.encode("11", reg).amplitudes) / math.sqrt(2)
    )
    print(f"{mode:>8} mode: Bell fidelity = {fb.fidelity(bell, out):.9f} "
          f"({len(sched.segments)} segments, {sched.duration_ns:.2f} ns)")

print("\n=== spectators stay untouched ===")
reg3 = fb.LogicalRegister.default(3)
logical = np.kron(np.kron([1, 0], [0, 1]), [1 / math.sqrt(2), 1j / math.sqrt(2)])
amp = np.zeros(2**reg3.n_physical, dtype=complex)
amp[reg3.code_indices()] = logical
psi0 = fb.QuantumState(amp)
out = fb.run_schedule(psi0, fb.compile_circuit(cphase, reg3, fb.ControlParams(mode="physical")))
td = fb.trace_distance(
    fb.reduced_density_matrix(psi0, list(reg3.pairs[2])),
    fb.reduced_density_matrix(out, list(reg3.pairs[2])),
)
print(f"CPHASE(0,1) with pair 2 as spectator: trace distance = {td:.2e}")

print("\n=== the same gates on an encoded linear chain ===")
chain = fb.linear_chain_encoded(2, 40.0, 25.0)
sched = fb.compile_circuit(circuit, reg, fb.ControlParams(mode="ideal"), base=chain)
res = fb.logical_process_fidelity(sched, fb.ideal_circuit_unitary(circuit, 2), reg)
print(f"Bell circuit on the chain (J_Q = 40 MHz, J' = 25 MHz): fidelity {res.fidelity:.9f}")
