"""Exception types shared across the package."""


class QuadpoleError(Exception):
    """Base class for all package errors."""


class MixedParity(QuadpoleError):
    """Polynomial mixes even and odd grades where a single parity is required."""


class NotDivisible(QuadpoleError):
    """Polynomial is not a multiple of the quadratic form (residual above tolerance)."""


class DivisibleByQ(QuadpoleError):
    """Polynomial is a multiple of the quadratic form where that is not allowed.

    quotient is P / Q when the divisibility test computed it, else None.
    """

    def __init__(self, message: str = "", quotient=None):
        super().__init__(message)
        self.quotient = quotient


class Degenerate(QuadpoleError):
    """Quadratic form is singular (|det B| below tolerance)."""


class InsufficientQuadrature(QuadpoleError):
    """Quadrature rule is not exact to the degree the computation needs."""


class ZeroForm(QuadpoleError):
    """Binary form is identically zero."""


class NotOnConic(QuadpoleError):
    """Point does not lie on the conic {Q = 0} within tolerance."""


class OddTotal(QuadpoleError):
    """Multiplicities sum to an odd number; no pairing into weight-2 pieces exists."""


class NoEvaluationPoint(QuadpoleError):
    """No trial point on the conic cleared the root-distance and magnitude thresholds."""


class NotReal(QuadpoleError):
    """Input has non-real coefficients where a real object is required."""


class NotDefinite(QuadpoleError):
    """Real quadratic form is not definite where definiteness is required."""


class ConjugationPairingFailure(QuadpoleError):
    """Root clusters cannot be matched into conjugate pairs within tolerance."""


class NotHarmonic(QuadpoleError):
    """Polynomial is not annihilated by the quadric Laplacian within tolerance."""


class SolveFailure(QuadpoleError):
    """A computed result did not reach the required residual."""


class StrategyMismatch(QuadpoleError):
    """Decomposition strategy is not applicable to the given input."""


class InvalidPartition(QuadpoleError):
    """Degree partition contains non-positive entries."""


class ZeroVector(QuadpoleError):
    """Direction vector is zero."""


class DegenerateTangency(QuadpoleError):
    """Tangency points from a pencil center collapse (center lies on the conic)."""


class EnumerationLimit(QuadpoleError):
    """Exhaustive enumeration would exceed the configured cap."""


class InvalidInput(QuadpoleError):
    """Serialized object violates its schema (bad shape, type, or unknown key)."""
