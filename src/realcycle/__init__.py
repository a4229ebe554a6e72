"""realcycle: exact quadratic-form invariants and real cycle classes of curves.

The package computes, with no floating point anywhere: Sturm-certified real
root isolation; Hermite and Smith normal forms, exponents and exactness of
complexes of finitely generated abelian groups; signatures, discriminants and residues of
diagonal forms over Q, R, C, F_p and Q(t); Milnor-Witt style (Milnor, Witt)
pairs in low degrees; the topology of real loci of punctured lines, the
projective line and hyperelliptic curves with twisted coefficient ladders;
and the image lattices, witness certificates and exponent bounds for the
associated cycle class maps.
"""

from . import abgrp, cycleclass, mwk, numeric, qform, realcurve

__all__ = [
    "abgrp",
    "cycleclass",
    "mwk",
    "numeric",
    "qform",
    "realcurve",
]

__version__ = "0.1.0"
