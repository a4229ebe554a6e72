"""Exception hierarchy shared by all realcycle modules."""


class RealCycleError(Exception):
    """Base class for every error raised by this package."""


# --- polynomial / root isolation ---

class ZeroPolynomial(RealCycleError):
    """An operation that needs a nonzero polynomial received the zero polynomial."""


class BadInterval(RealCycleError):
    """Interval endpoints are not in increasing extended order."""


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


class EntryVanishesAtOrdering(RealCycleError):
    """An entry evaluated to zero at an ordering (cannot happen for side orderings)."""


class CompatibilityError(RealCycleError):
    """The Milnor and Witt halves of an element disagree on their shared invariants."""


# --- real curves ---

class NotSquareFree(RealCycleError):
    """A hyperelliptic model requires a square-free polynomial."""


class UnsupportedClosure(RealCycleError):
    """The requested model lies outside the supported curve grammar."""


class MarkerOffComponent(RealCycleError):
    """A twist marker names a point that is not on the named component."""


# --- cycle classes ---

class PointOffCurve(RealCycleError):
    """A zero-cycle term uses a point that is not on the curve."""


class UnsupportedTwist(RealCycleError):
    """The signature-lattice computation only covers the untwisted case."""


class NegativeInput(RealCycleError):
    """Codimension and dimension arguments must be non-negative."""


class BadDimension(RealCycleError):
    """The punctured affine space computation needs dimension at least two."""


# --- command line ---

class SpecParseError(RealCycleError):
    """A curve, form or twist specification failed to parse."""
