"""Exception types shared across the package."""


class TokenGraphError(Exception):
    """Base class for every package-specific error."""


class NoSuchVertex(TokenGraphError, ValueError):
    """A vertex id is outside 0..n-1."""


class NotAnEdge(TokenGraphError, ValueError):
    """An edge operand is a loop, absent, or otherwise not a usable edge."""


class SizeLimitExceeded(TokenGraphError, ValueError):
    """Input is larger than the hard cap of an exhaustive routine."""


class UnsupportedPattern(TokenGraphError, ValueError):
    """Pattern containment needs a non-empty connected pattern."""


class MalformedGraph6(TokenGraphError, ValueError):
    """graph6 input failed to parse; `offset` is the offending byte index."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte {offset})")
        self.offset = offset


class IndexOutOfRange(TokenGraphError, IndexError):
    """A subset rank is outside 0..C(n,k)-1."""


class BadK(TokenGraphError, ValueError):
    """The token count k is outside the meaningful range for this operation."""


class BudgetExceeded(TokenGraphError, RuntimeError):
    """A construction would exceed the configured vertex budget."""


class InvalidScript(TokenGraphError, ValueError):
    """A minor script references a vertex or edge that does not exist."""


class NotRegularInput(TokenGraphError, ValueError):
    """An operation requiring a regular (token) graph got an irregular one."""


class NoP3Found(TokenGraphError, ValueError):
    """The residual-degree check needs a path on three vertices; none exists."""


class Disconnected(TokenGraphError, ValueError):
    """The operation is only defined for connected inputs."""
