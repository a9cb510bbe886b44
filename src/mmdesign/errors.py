"""Exception taxonomy shared across the package.

Each CLI-facing error class carries the process exit code the command-line
front end maps it to (0 success, 2 configuration, 3 input parsing,
4 numerical/runtime).
"""

from __future__ import annotations


class MmdesignError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigurationError(MmdesignError):
    """Invalid parameter, option combination, or config file content."""

    exit_code = 2


class GenerationError(ConfigurationError):
    """A generator could not produce a valid design (e.g. a polynomial that
    fails the full-period primitivity check)."""


class TableLookupError(ConfigurationError):
    """A grid point is missing from a local-optimum table (grid/table
    mismatch)."""


class InputParseError(MmdesignError):
    """Malformed design file or config JSON."""

    exit_code = 3


class TableFormatError(TableLookupError, InputParseError):
    """A local-optimum table file that is not a list of well-formed rows."""

    exit_code = 3


class NumericalError(MmdesignError):
    """Numerical failure (singular systems where invertibility is required,
    failed normalization, exhausted sampling budget)."""

    exit_code = 4


class SamplingError(NumericalError):
    """Rejection sampling exhausted its try budget."""
