"""Exception types shared across the package.

Every error carries a stable ``code`` so the CLI can report machine-readable
failures without string matching.
"""


class ResbdyError(Exception):
    code = "error"


class DisconnectedGraph(ResbdyError):
    code = "disconnected-graph"


class NonpositiveConductance(ResbdyError):
    code = "nonpositive-conductance"


class SelfLoop(ResbdyError):
    code = "self-loop"


class InvalidParameters(ResbdyError):
    code = "invalid-parameters"


class DomainMismatch(ResbdyError):
    code = "domain-mismatch"


class SolverFailure(ResbdyError):
    code = "solver-failure"


class SingularSystem(ResbdyError):
    code = "singular-system"


class GramDegenerate(ResbdyError):
    code = "gram-degenerate"


class DimensionMismatch(ResbdyError):
    code = "dimension-mismatch"


class NotHarmonic(ResbdyError):
    code = "not-harmonic"


class IsolatedVertex(ResbdyError):
    code = "isolated-vertex"


class UsageError(ResbdyError):
    code = "usage-error"
