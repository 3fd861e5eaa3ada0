"""Exact-arithmetic toolkit for generating numbers of group-graded rings:
rank certificates and their transformations, translation rings with
Folner-based compression, paradoxical-decomposition search on Cayley-ball
truncations, and rewriting engines for Leavitt and generalized Weyl
algebras.  Import each name from its module; the package root exports
nothing but __version__.
"""

__version__ = "0.1.0"
