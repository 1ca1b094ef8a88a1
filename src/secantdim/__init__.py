"""Exact-arithmetic dimensions of higher secant varieties of the
bidegree-(1,d) embeddings of P^n x P^m, with the single-graded dictionary,
the residual/trace induction machinery, and grid certification tooling.

Import from the submodules, e.g. `from secantdim.scanner import scan`."""

__version__ = "0.1.0"
