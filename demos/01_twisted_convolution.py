"""Tour of the twisted convolution algebra on small groupoids.

Builds the 2x2 matrix algebra as the convolution algebra of the full
equivalence relation on two points, then the sign-twisted Klein group
whose algebra is a full 2x2 matrix algebra in disguise.
"""

import numpy as np

from twistalg import (
    cstar_norm,
    diagonal,
    regular_representation,
    standard_contexts,
    validate_groupoid,
)

ctxs = standard_contexts()

print("== R2: the full equivalence relation on two points ==")
r2 = ctxs["R2"]
print("elements:", r2.groupoid.elements)
print("units:   ", r2.groupoid.units)
print("valid groupoid:", validate_groupoid(r2.groupoid).ok)

# delta elements behave like matrix units: e12 e21 = e11
d12, d21 = r2.delta("(1,2)"), r2.delta("(2,1)")
print("d(1,2) * d(2,1) =", d12 * d21)
print("d(1,2)^*        =", d12.star())
print("|d(1,2)|        =", cstar_norm(d12))
print("|d(1,2)+d(2,1)| =", cstar_norm(d12 + d21), "(a permutation matrix)")

print()
print("== V4 with the sign cocycle: a projective Klein group ==")
v4 = ctxs["V4_pauli"]
a = v4.delta("01") * v4.delta("10")
b = v4.delta("10") * v4.delta("01")
print("d01 * d10 =", a)
print("d10 * d01 =", b, " (the generators anticommute)")

# the regular representation shows the 2x2 Pauli picture doubled
image = regular_representation(v4.delta("01"))
print("block at the unit:")
print(np.round(image.blocks["00"].real, 3))
mats = [regular_representation(v4.delta(g)).blocks["00"] for g in v4.groupoid.elements]
rank = np.linalg.matrix_rank(np.array([m.ravel() for m in mats]))
print("dimension of the image algebra:", rank, "(a full matrix algebra)")

print()
print("== the diagonal map is the expectation onto the unit space ==")
z4 = ctxs["Z4"]
elem = 3 * z4.delta("0") + 1j * z4.delta("1")
print("a       =", elem)
print("E(a)    =", diagonal(elem))
print("|E(a)| <= |a|:", cstar_norm(diagonal(elem)) <= cstar_norm(elem) + 1e-12)
