"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: `InputError` (and `OSError`) exit 2,
`AnalysisRefusal` exits 1, `InternalError` exits 3.
"""


class CqaError(Exception):
    pass


class InputError(CqaError):
    """Malformed input: query text, schema file, CSV data, bad flags."""


class AnalysisRefusal(CqaError):
    """Well-formed input that the requested analysis cannot serve."""


class InternalError(CqaError, RuntimeError):
    """A broken invariant inside the package: a bug, whatever the input."""
