"""Build the coloured graph of a 6-tuple and look around.

A tuple (h0,h1,h2;q0,q1,q2) lays out three even cycles C_0, C_1, C_2 of
lengths h2+h0, h0+h1, h1+h2 (doubled), joins them by colour 2 in a fixed
zig-zag pattern, and defines colour 3 as colour 2 conjugated by rotating
each cycle by its shift q_i.  When the tuple is admissible the result is
a crystallization of a closed orientable 3-manifold of Heegaard genus at
most two.

Run:  python3 demos/build_and_inspect.py
"""

from twosym import (
    admissibility,
    build_graph,
    embedding_euler,
    is_contracted,
    is_gem,
    parse_tuple,
    rho_symmetry,
    to_dot,
)

f = parse_tuple("(1,3,3;2,2,2)")
print(f"tuple          {f}")
print(f"complexity     {f.upsilon}  (the graph has {2 * f.upsilon} vertices)")
print(f"cycle lengths  {[f.two_l(i) for i in range(3)]}")
print(f"admissibility  {admissibility(f)}")

g = build_graph(f)
print(f"\ngem: {is_gem(g)}   contracted: {is_contracted(g)}   "
      f"crystallization: {is_gem(g) and is_contracted(g)}")
print(f"bipartite (orientable): {g.bipartition() is not None}")
print(f"{{0,1}}-residues: {sorted(len(c) for c in g.residues((0, 1)))}")
print(f"{{2,3}}-residues: {len(g.residues((2, 3)))}  (three means genus two)")

# the rotation by the shifts is the symmetry that makes the whole
# construction tick: it manufactures the 3-edges out of the 2-edges
print(f"\nshift symmetry: {rho_symmetry(f)}")

# the colour order (0,2,1,3) lays the graph on a genus-two surface
chi = embedding_euler(g, (0, 2, 1, 3))
print(f"embedding Euler characteristic with order (0,2,1,3): {chi}"
      f"  -> genus {(2 - chi) // 2}")

# two tuples that satisfy the arithmetic conditions but fail the
# residue count: their graphs are gems of the wrong shape
for text in ["(3,3,3;0,0,2)", "(1,1,3;0,0,0)"]:
    bad = parse_tuple(text)
    print(f"\n{bad}: {admissibility(bad)}")

out = "demo_gem.dot"
with open(out, "w") as handle:
    handle.write(to_dot(g, name="gem"))
print(f"\nwrote {out} (render with: dot -Tpng {out} -o gem.png)")
