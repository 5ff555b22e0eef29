"""Exception types shared across the package.

Three failure categories are kept apart because the CLI maps them to
different exit codes: bad configuration or data (exit 2), mathematical
domain errors (exit 2), and violated mathematical preconditions such as
"input is not in GR(eps)" (exit 3).
"""

from __future__ import annotations


class ConfigurationError(ValueError):
    """Invalid grid/mode/spec combination (e.g. dyadic mode on a non power-of-two grid)."""


class DataValidationError(ValueError):
    """Grid data refused: a malformed file, or data that validate() reports on."""


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
