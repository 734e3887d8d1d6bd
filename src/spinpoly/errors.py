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


class BaseMismatch(SpinpolyError):
    pass


# -- term orders ----------------------------------------------------------

class NotTotal(SpinpolyError):
    pass


# -- toric ----------------------------------------------------------------

class NormalityPrerequisiteFailed(SpinpolyError):
    """`witness` is (N, a point of NP that is no sum of N points of P)."""

    def __init__(self, witness):
        super().__init__(f"not normal: witness {witness}")
        self.witness = witness


class HypothesisViolated(SpinpolyError):
    pass
