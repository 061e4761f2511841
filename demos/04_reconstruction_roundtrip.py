"""Rebuilding the groupoid and the twist from purely algebraic data.

Ultrafilters of the monomial semigroup under domination are the points of
the groupoid; source and range states measure magnitudes, angles between
members recover the phases, and the hat map sends the algebra back onto
itself.  The punchline: Z4 and the Klein group have isomorphic algebras
and identical diagonals, yet the reconstructions tell them apart.
"""

from twistalg import (
    angle,
    groupoids_isomorphic,
    hat,
    magnitude,
    reconstruct,
    recover_cocycle,
    standard_contexts,
    twist_point,
    ultrafilter_at,
    ultrafilter_product,
)
from twistalg.fileio import groupoid_from_dict

ctxs = standard_contexts()
r2 = ctxs["R2"]

print("== ultrafilters are points ==")
u = ultrafilter_at(r2, "(1,2)")
print("d12 in U_(1,2):", u.contains(r2.delta("(1,2)")))
print("d21 in U_(1,2):", u.contains(r2.delta("(2,1)")))
prod = ultrafilter_product(u, ultrafilter_at(r2, "(2,1)"))
print("U_(1,2) . U_(2,1) = U_" + prod.g)

print()
print("== magnitudes and angles ==")
n = r2.delta("(1,2)", 3j)
print("|3i d12| at the point:", magnitude(u, n))
print("angle(i d12, d12):", angle(u, 1j * r2.delta("(1,2)"), r2.delta("(1,2)")))
print("twist point of i d12:", twist_point(1j * r2.delta("(1,2)"), u))

print()
print("== the sign cocycle is recovered exactly ==")
v4 = ctxs["V4_pauli"]
recovered, residual = recover_cocycle(v4)
print("max phase residual:", residual)
print("recovered sign entries:", sorted(recovered.values))

print()
print("== the hat map is the identity under the point picture ==")
a = 2 * r2.delta("(1,1)") - 1j * r2.delta("(2,1)")
print("a      =", a)
print("hat(a) =", hat(a))

print()
print("== full round trip, then distinguishing Z4 from V4 ==")
for name in ("R2", "Z4", "V4", "V4_pauli"):
    report = reconstruct(ctxs[name])
    print(f"{name:9s} isomorphism: {report.isomorphism['status']:12s}"
          f" cocycle residual: {report.cocycle_residual:.1e}  passed: {report.passed}")


z4_rebuilt = groupoid_from_dict(reconstruct(ctxs["Z4"]).rebuilt_groupoid, "rebuilt Z4")
v4_rebuilt = groupoid_from_dict(reconstruct(ctxs["V4"]).rebuilt_groupoid, "rebuilt V4")
print("rebuilt Z4 vs rebuilt V4:", groupoids_isomorphic(z4_rebuilt, v4_rebuilt).status)
