"""Translation-invariant CSS codes presented by GF(2) Laurent polynomials.

The pipeline, module by module:

* :mod:`polyqec.poly` — exact Laurent-polynomial algebra over GF(2);
* :mod:`polyqec.lattice` — integer-lattice normal forms and finite abelian
  quotient groups (the translation groups cut out by boundary relations);
* :mod:`polyqec.codes` — two-block CSS codes, hypergraph products,
  indecomposability, parent lifting and compactification, family trees,
  locality-bound summaries;
* :mod:`polyqec.instantiate` — bit-packed parity-check matrices of a code
  on a finite translation group;
* :mod:`polyqec.distance` — exact and randomized (information-set)
  distance searches;
* :mod:`polyqec.barrier` — exact energy barriers by bottleneck search
  over the flip graph;
* :mod:`polyqec.specfile` / :mod:`polyqec.fixtures` — the ``.code`` file
  format and the bundled example codes;
* :mod:`polyqec.cli` / :mod:`polyqec.report` — the ``polyqec`` command and
  its JSON report documents.
"""
