"""Exception types shared across the package, and the bad-argument contract.

Every public call reads each integer argument with its kind's reader in
`graphs`, by `operator.index`: a float, a string or None is no integer, even
2.0, while a bool is one. A value that is no integer raises the same error
as an integer out of range:

- a token count k: `BadK`;
- a vertex, or a member of a vertex set (`KSubset`, `SubsetCodec.rank`,
  `token_degree`, `induced_subgraph`): `NoSuchVertex`, whose message for a
  non-integer says the vertices must be integers; a set of the wrong shape
  (a repeated member, the wrong size) raises a plain `ValueError`, and so
  does a vertex set given as a bitmask (`SubsetCodec.rank_mask`,
  `has_subgraph`'s `banned`) that is no integer or has a bit at n or above;
- an order, size or length (`Graph`, the named constructors, `SubsetCodec`
  and `KSubset`'s n, `graph_classes`, `connected_graphs`,
  `has_cycle_of_length_at_least`): a plain `ValueError`. A negative integer
  is valid where it has an answer: no graph classes, and any cycle is long
  enough;
- an order of `edge_maximal_search`: `BadK`, as the orders bound k;
- the search budget, a real number of seconds: `TokenGraphError` for a
  non-number, or a negative, NaN or infinite one;
- a rank (`SubsetCodec.unrank`, `TokenGraph.subset_of`): `TypeError` for a
  non-integer and `IndexOutOfRange` for one outside 0..C(n,k)-1;
- a label in a script (`apply_script`, `lift_script`, and the editing
  methods `delete_vertex`, `delete_edge` and `contract_edge`, which run
  one-step scripts): `InvalidScript` for a malformed step or a non-integer
  label, `NoSuchVertex` or `NotAnEdge` for a step that does not apply.

Records hold what they are given: an operation's labels are read where its
script runs, and a result record is the library's own output. Arguments
typed as a `Graph` or as text are not checked: a wrong type fails where it
is first used, often with an `AttributeError`.
"""


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
    """The token count k (or a search order) is no integer, or outside the operation's range."""


class BudgetExceeded(TokenGraphError, RuntimeError):
    """A token graph would have more vertices than `tokens.DEFAULT_VERTEX_BUDGET`."""


class InvalidScript(TokenGraphError, ValueError):
    """A script step is malformed: it does not unpack, has another code or
    arity, or names a label that is no integer. A well-formed step naming a
    vertex or edge that does not exist raises NoSuchVertex or NotAnEdge."""


class NotRegularInput(TokenGraphError, ValueError):
    """An operation requiring a regular (token) graph got an irregular one."""


class NoP3Found(TokenGraphError, ValueError):
    """The residual-degree check needs a path on three vertices; none exists."""


class Disconnected(TokenGraphError, ValueError):
    """The operation is only defined for connected inputs."""
