"""Exception types raised across the package."""


class GraphError(Exception):
    pass


class ConnectivityUnreachable(GraphError):
    """A connected random seed graph cannot be produced."""


class UnknownNode(GraphError, KeyError):
    pass


class MissingEdge(GraphError, KeyError):
    pass


class SampleTooLarge(GraphError, ValueError):
    pass


class EmptyGraph(GraphError, ValueError):
    pass


class CountTooLarge(ValueError):
    pass


class PlanInvalid(ValueError):
    pass


class WrongDirectedness(ValueError):
    pass


class TooFewPoints(ValueError):
    pass


class NonFiniteInput(ValueError):
    pass


class NotConverged(RuntimeError):
    pass


class SingularKernel(RuntimeError):
    pass


class TooFewInputs(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


class KTooLarge(ValueError):
    pass


class MissingGpFields(ValueError):
    pass


class DegenerateCovariance(ValueError):
    pass


class EmptyPosterior(ValueError):
    pass


class EdgeListParseError(ValueError):
    def __init__(self, line_number, message):
        super().__init__("line %d: %s" % (line_number, message))
        self.line_number = line_number


class ConfigError(ValueError):
    pass


class MissingTimestamps(ConfigError):
    """A seed cutoff was given for an edge list without timestamps."""
