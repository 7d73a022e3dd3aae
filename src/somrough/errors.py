"""Exception hierarchy shared by all modules.

Two failure families map onto the CLI exit-code contract: bad data in
(exit 2) versus a caller breaking an API precondition (exit 1). Each
class declares its exit code and the prefix the CLI prints on stderr.
"""


class SomroughError(Exception):
    """Base class for all package errors."""


class DataError(SomroughError):
    """Input data violates a documented format or content requirement."""

    exit_code = 2
    label = "data error"


class UsageError(SomroughError):
    """An operation was called outside its contract."""

    exit_code = 1
    label = "usage error"
