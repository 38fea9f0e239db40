"""Recompute the design-point numbers end to end.

The same table is available from the command line as
``fluxbus reproduce-paper``; here it is assembled through the library calls
so each row's provenance is visible.  J is formed as ``fluxbus design`` forms
it, from the SQUID loaded by the bus: a SQUID whose loop inductance is
L/(1 + M^2/(L L_b)).
"""

from dataclasses import replace

import fluxbus as fb

squid = fb.SquidParams(150.0, 80.0, 3.0)
bus = fb.BusParams(l_b_nh=2.0, m_ph=2.0, n_qubits=1000)

barrier_up = fb.extract_two_level(squid)
suppressed = fb.extract_two_level(replace(squid, ic_ua=2.375))
biased = fb.extract_two_level(replace(squid, phi_x=0.5 + 0.15e-3))
loaded = fb.extract_two_level(replace(squid, l_ph=squid.l_ph / (1.0 + bus.m_ph**2 / (squid.l_ph * bus.l_b_ph))))

rows = [
    ("tunneling, barrier up", f"{barrier_up.delta_ghz * 1e9:.1f} Hz", "~30 Hz", ""),
    ("tunneling, Ic = 2.375 uA", f"{suppressed.delta_ghz:.3f} GHz", "~2.6 GHz", ""),
    ("bias splitting, 0.15 mPhi0", f"{biased.epsilon_ghz:.3f} GHz", "~2.7 GHz", "barrier up"),
    ("effective mutual M^2/L_b", f"{fb.effective_mutual(bus):.3f} fH", "~2 fH", ""),
    ("coupling strength J", f"{fb.coupling_strength(loaded, bus):.2f} MHz", "~25 MHz",
     f"from i_p = {loaded.i_p_ua:.3f} uA"),
    ("geometric bound N_max", f"{fb.max_qubits(bus)}", "1000", ""),
    ("pi-pulse time", f"{1.0 / (2.0 * suppressed.delta_ghz):.3f} ns", "~0.4 ns",
     "quoted value is 1/delta: factor-2 convention gap"),
]

print(f"{'quantity':<28} {'computed':>12}   {'design value':>12}   note")
print("-" * 86)
for name, computed, quoted, note in rows:
    print(f"{name:<28} {computed:>12}   {quoted:>12}   {note}")

ratio = fb.weak_coupling_ratio(squid, bus)
print("-" * 86)
print(f"weak-coupling ratio N M^2/(L L_b) = {ratio:.4f}: "
      f"1000 qubits sit comfortably inside the weak-coupling regime.")
