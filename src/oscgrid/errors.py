"""Exception types shared across the package, one per kind of failure:
a request outside the program's rules (ConfigurationError: a flag, mode,
shape or spec), grid data it refuses (DataValidationError), and a quantity
asked for outside its domain (DomainError), each exit 2 in the CLI; and a
theorem's hypothesis failing on valid data (PreconditionError, exit 3),
which carries the witness cube.
"""

from __future__ import annotations


class ConfigurationError(ValueError):
    """Invalid grid/mode/spec combination (e.g. dyadic mode on a non power-of-two grid)."""


class DataValidationError(ValueError):
    """Grid data refused: a malformed file, or data that validate() refuses."""


class DomainError(ValueError):
    """Operation called outside its mathematical domain (zero-mass cube, bad parameter range)."""


class PreconditionError(RuntimeError):
    """A theorem's hypothesis fails on the given data.

    Carries the witness cube that breaks the hypothesis so reports and CLI
    errors can name it.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
