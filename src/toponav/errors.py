"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all toponav errors."""


class InvalidInput(Error, ValueError):
    """An argument is malformed (non-finite, empty, wrong range)."""


class InvalidPose(Error, ValueError):
    """A pose lies outside the map or inside an occupied cell."""


class InvalidMap(Error, ValueError):
    """A map violates the closed-world format (not a 2D grid, open border)."""


class InvalidVertex(Error, KeyError):
    """A vertex id is not present in the graph."""


class InvalidGoal(Error, ValueError):
    """An episode goal does not name a graph vertex."""


class EdgeNotFound(Error, KeyError):
    """An edge key is not present in the graph."""


class RouteError(Error, RuntimeError):
    """A scripted collection route is infeasible or produced no data."""


class GraphInvariantError(Error, RuntimeError):
    """A graph's edges, beliefs or adjacency index are inconsistent."""


class LoadError(Error, RuntimeError):
    """A serialized file has the wrong version or is malformed."""


class ConfigError(Error, ValueError):
    """A config file contains unknown keys or unparseable values."""
