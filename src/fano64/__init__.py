"""Exact-arithmetic toolkit for the degree-64 Fano threefold classification.

Submodules:

* lattice: lattice vectors as int triples; det3, the integer Cramer
  solve solve3, and vec_str
* surfaces: divisor arithmetic on the plane and Hirzebruch surfaces
* bundles: Chern-class calculus on projectivized bundles, and the
  anticanonical degree of rank-3 scrolls
* wps: weighted projective 3-space invariants
* toric: fans, cone singularities and anticanonical polytopes
* ledger: degree/genus bookkeeping under blow-ups and projections
* records: case records, their JSON, and what a ledger run must satisfy
* elimination: the case-analysis engine, built at degree 64, and the
  classification summary
* cli: the `fano64` command-line tool

Each public name lives in its submodule and is imported from there, e.g.
`from fano64.toric import validate_fan`.
"""

__version__ = "0.1.0"
