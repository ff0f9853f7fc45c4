"""Exception types shared across the simulator.

The CLI maps these onto its exit-code contract: configuration and input
problems exit with 2, internal invariant violations exit with 3.
"""


class ConfigError(Exception):
    """Invalid configuration or parameters (CLI exit code 2)."""


class ParseError(Exception):
    """Malformed workload file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InternalError(Exception):
    """A runtime invariant was violated (CLI exit code 3).

    Signals a bug in probe/rollback bookkeeping or a corrupted embedding,
    never a routine routing failure.
    """
