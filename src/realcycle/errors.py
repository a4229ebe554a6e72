"""Exception hierarchy shared by all realcycle modules."""


class RealCycleError(Exception):
    """Base class for every error raised by this package."""


# --- polynomial / root isolation ---

class ZeroPolynomial(RealCycleError):
    """An operation that needs a nonzero polynomial received the zero polynomial."""


# --- abelian groups / lattices ---

class RankMismatch(RealCycleError):
    """A vector or lattice does not match the rank of its ambient group."""


class NotComposable(RealCycleError):
    """Consecutive maps in a sequence do not compose."""


class IllDefinedMap(RealCycleError):
    """A matrix does not carry the source relations into the target relations."""


# --- quadratic forms ---

class ContextMismatch(RealCycleError):
    """Two forms live over different field contexts."""


class ZeroEntry(RealCycleError):
    """A diagonal form or symbol entry is zero."""


class UnorderedContext(RealCycleError):
    """The field context admits no orderings."""


class UnsupportedContext(RealCycleError):
    """The operation is not decidable over this field context."""


class FactorizationLimit(RealCycleError):
    """A square class needs the factors of an integer beyond the trial-division bound."""


class CompatibilityError(RealCycleError):
    """The Milnor and Witt halves of an element disagree on their shared invariants."""


# --- real curves ---

class NotSquareFree(RealCycleError):
    """A polynomial that must be square-free has a repeated root: the f of a
    hyperelliptic model, or an input of ``isolate_coprime_roots``."""


class UnsupportedClosure(RealCycleError):
    """The requested model lies outside the supported curve grammar."""


class MarkerOffComponent(RealCycleError):
    """A twist marker names a point that is not on the real locus."""


# --- cycle classes ---

class PointOffCurve(RealCycleError):
    """A zero-cycle term uses a point that is not on the curve."""


class NegativeInput(RealCycleError):
    """Codimension and dimension arguments must be non-negative."""


# --- command line ---

class SpecParseError(RealCycleError):
    """A curve, form or twist specification failed to parse."""
