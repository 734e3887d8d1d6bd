"""Exception types shared across the package."""


class SpinpolyError(Exception):
    """Base class for all package-specific errors."""


# -- graphs ---------------------------------------------------------------

class NonTrivalent(SpinpolyError):
    """A non-leaf vertex has degree != 3."""


class Disconnected(SpinpolyError):
    pass


class BadLeafLabels(SpinpolyError):
    """Leaf labels are not a bijection 1..n onto the degree-1 vertices."""


class LengthMismatch(SpinpolyError):
    pass


class BoundsTooLarge(SpinpolyError):
    pass


# -- polytopes ------------------------------------------------------------

class Unbounded(SpinpolyError):
    pass


class InvalidParams(SpinpolyError):
    pass


class ParityViolation(SpinpolyError):
    pass


# -- term orders ----------------------------------------------------------

class NotTotal(SpinpolyError):
    pass


# -- toric ----------------------------------------------------------------

class HypothesisViolated(SpinpolyError):
    pass
