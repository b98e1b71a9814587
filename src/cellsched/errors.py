"""Exception types shared across the package.

Every error derives from CellschedError, so the CLI catches all expected
failures in one clause.  Bad input of any kind, from a config value out of
range to a metric over no completed flow, is a ParameterError (a ValueError);
a broken scheduling invariant is a SchedulingError (a RuntimeError).
"""


class CellschedError(Exception):
    """Base class for every error this package raises on purpose."""


class ParameterError(CellschedError, ValueError):
    """Bad input: a value outside its documented domain, or a request the setup cannot serve."""


class SchedulingError(CellschedError, RuntimeError):
    """A scheduling invariant of the slot loop was broken."""
