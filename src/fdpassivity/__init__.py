"""Frequency-domain passivity and small-signal stability toolkit for
converter-dominated power systems.

Everything works on 2x2 dq-frame admittances Y(s) in per unit.  The core
quantities are the passivity index (minimum eigenvalue of Y + Y^H), its
parametric and nodal sensitivities, component participations, and two
network-level stability readings: generalized Nyquist over the loop-gain
eigenloci and direct mode solving on det Y_n(s).
"""

__version__ = "0.1.0"
