"""realcycle: exact quadratic-form invariants and real cycle classes of curves.

The package computes, with no floating point anywhere: Sturm-certified real
root isolation; Hermite and Smith normal forms, exponents and exactness of
complexes of finitely generated abelian groups; signatures, discriminants and residues of
diagonal forms over Q, R, C, F_p and Q(t); Milnor-Witt style (Milnor, Witt)
pairs in low degrees; the topology of real loci of punctured lines, the
projective line and hyperelliptic curves with twisted coefficient ladders;
and the image lattices, witness certificates and exponent bounds for the
associated cycle class maps.

Importing the package loads none of its submodules.  Each name in
``__all__`` is imported on first access (``realcycle.qform``, ``from
realcycle import abgrp``), so a process pays only for the modules it uses:
``realcycle form`` never loads the curve and lattice modules.
"""

__all__ = [
    "abgrp",
    "cycleclass",
    "mwk",
    "numeric",
    "qform",
    "realcurve",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """The submodule ``name`` of ``__all__``, imported on first access; the
    import binds it on the package, so this runs once per name."""
    if name in __all__:
        from importlib import import_module
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
