"""Exception types shared across the package."""


class GenposError(Exception):
    """Base class for every package-specific error."""


class LoopError(GenposError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GenposError):
    """The same unordered edge appears twice."""


class EmptySetError(GenposError):
    """An operation that needs at least one vertex got none."""


class DisconnectedError(GenposError):
    """A connected graph was required."""


class NotAnEdgeError(GenposError):
    """The given vertex pair is not an edge of the graph."""


class SpecError(GenposError):
    """A family spec, parameter list, or input file is malformed."""


class GenerationError(GenposError):
    """Random generation exhausted its retry budget."""


class SizeError(GenposError):
    """The instance exceeds the size cap of an exhaustive routine."""
