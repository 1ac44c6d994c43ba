"""pertlab: exact perturbation calculus for filtered chain complexes.

Subpackages are organized bottom-up; each imports only from lower layers:

- exactlin: integer matrices, Smith normal form, homology invariants
- chaincore: filtered chain complexes, graded maps, hom complexes (the hom
  differential is built from the nonzeros of the differentials)
- operad_sym: the symbolic two-colored operad engine
- sdr_bpl: strong deformation retracts and the basic perturbation lemma,
  and the one tower check: a retract is the cap-0 tower with L = 0, and
  every tower identity is read from operad_sym's generator table
- she_obstruction: homotopy equivalences, obstruction classes, extension;
  the obstruction cycles and the joint correction system of the
  extension are read from the same table
- ipl_pipeline: operad actions and perturbation transfer along equivalences
- fixtures: seeded deterministic example builders
- cli_io and cli: JSON document formats and the command-line surface
"""

__version__ = "0.1.0"
