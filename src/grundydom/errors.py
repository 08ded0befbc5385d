"""Error taxonomy shared by the library and the command line tool.

ParameterError covers bad input values and domain violations (exit code 1).
CapacityError covers the fixed resource caps, module constants such as solver
order limits or subset-enumeration guards (exit code 2). InvariantError
reports a computed value that breaks a proven bound, which means a solver bug
(exit code 1).
"""


class ParameterError(ValueError):
    """Invalid parameter or domain violation."""


class CapacityError(RuntimeError):
    """A fixed resource cap would be exceeded."""


class InvariantError(RuntimeError):
    """A computed value contradicts a proven bound."""


class ParseError(ParameterError):
    """Malformed input or an impossible edge; the message leads with its 1-based line when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def quoted(token: str) -> str:
    """A token as an error message shows it: quoted, and cut after 20 characters."""
    token = str(token)
    return repr(token) if len(token) <= 20 else repr(token[:20]) + "..."
