"""Exception hierarchy shared by all rotap modules."""


class RotapError(Exception):
    """Base class for all library errors; each subclass sets the CLI's ``exit_code`` and stderr ``label``."""


class GridError(RotapError):
    """Base class for grid construction/validation failures."""
    exit_code, label = 3, "grid error"


class InvalidGrid(GridError):
    """A grid violates its structural invariants."""


class NotInvariant(GridError):
    """A planar point set is not invariant under rotation by 2*pi/N.

    Carries the first witness point whose rotated image is missing.
    """

    def __init__(self, witness, message=None):
        self.witness = tuple(witness)
        super().__init__(message or f"point set not rotation-invariant; witness {self.witness}")


class TrivialStabilizer(GridError):
    """The origin appeared where a trivial stabilizer is required (frequency grids, interpolation)."""


class ParseError(RotapError):
    """A persisted file could not be parsed."""
    exit_code, label = 5, "I/O error"


class GridMismatch(RotapError):
    """Two objects built over incompatible grids were combined."""
    exit_code, label = 3, "grid error"


class DomainError(RotapError, ValueError):
    """An argument fell outside the supported numeric range."""
    exit_code, label = 2, "usage error"


class WellPosednessError(RotapError):
    """A Fourier-Bessel block is numerically singular.

    Carries the index of the offending DFT bin.
    """
    exit_code, label = 4, "well-posedness error"

    def __init__(self, bin_index, condition=None):
        self.bin_index = bin_index
        self.condition = condition
        msg = f"block for DFT bin {bin_index} is numerically singular"
        if condition is not None:
            msg += f" (1-norm condition number {condition:.3e})"
        super().__init__(msg)


class InsufficientSample(RotapError):
    """The group-element sample cannot certify the commutant dimension."""
    exit_code, label = 2, "usage error"
