"""Combinatorial maps on the sphere, their directed medial quivers, and the
state lattices and quiver representations living on top of them.

The pipeline, bottom to top:

* ``planar``   -- sphere-embedded multigraphs as rotation systems, face
  tracing, angles, and the directed medial quiver.
* ``states``   -- weights, the ``Decoration`` of a map by a weight (each
  invariant of the pair computed once), compatible angular functions,
  counterclockwise moves, invisible cycles, nilpotency degree.
* ``bms``      -- BMS states (f_plus, f_minus, d) and the graded
  distributive lattices they form, walked and certified on the move graph.
* ``lattice``  -- the certified poset and lattice types that walk returns.
* ``kauffman`` -- link diagrams, Kauffman states, clock lattices.
* ``linalg``   -- exact rational matrices (rank, kernel, column space).
* ``reps``     -- potentials, cyclic derivatives, state modules over the
  Jacobian algebra, endomorphism rings, subrepresentation lattices.
* ``corpus``   -- small built-in families of link diagrams.
* ``check``    -- the certified battery of one link diagram as named
  verdicts, which ``check-all`` formats.
* ``cli``      -- command line front end.
"""

__version__ = "0.1.0"
