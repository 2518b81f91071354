"""Exception types shared across the package."""


class CoherenceSpeedError(Exception):
    """Base class for package-specific errors."""


class DimensionMismatch(CoherenceSpeedError):
    """Operands live on incompatible Hilbert spaces."""


class NotHermitian(CoherenceSpeedError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPSD(CoherenceSpeedError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class InvalidState(CoherenceSpeedError):
    """Vector or density matrix fails normalization/trace checks."""


class BadRank(CoherenceSpeedError):
    """Requested rank outside 1..dim."""


class BadPermutation(CoherenceSpeedError):
    """Sequence is not a permutation of 0..M-1."""


class DegenerateSpectrum(CoherenceSpeedError):
    """Eigenvalues are not pairwise distinct within tolerance."""


class SingleLevel(CoherenceSpeedError):
    """Hamiltonian has one distinct level; the averaged distance is identically zero."""


class TooManyLevels(CoherenceSpeedError):
    """Distinct level count exceeds the brute-force permutation cap."""


class DegenerateInput(CoherenceSpeedError):
    """All block weights vanish; no normalizable block state exists."""


class TooManyKraus(CoherenceSpeedError):
    """More Kraus operators than the environment dimension can absorb."""


class IncompleteKraus(CoherenceSpeedError):
    """Kraus operators hold a non-finite entry or fail the completeness relation beyond tolerance."""


class GridTooCoarse(CoherenceSpeedError):
    """Time step too large for the sampled Hamiltonian norm."""


class WindowTooWide(CoherenceSpeedError):
    """Work window exceeds the monotone-sine regime of the bound."""


class UnknownSuite(CoherenceSpeedError):
    """Verification suite name not recognized."""
