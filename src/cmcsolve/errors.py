"""Exception types shared across the package."""


class CMCSolveError(Exception):
    """Base class for all package errors."""


class ConfigError(CMCSolveError):
    """Invalid run configuration (bad key, value out of range, schema mismatch)."""


class NotOnBoundary(CMCSolveError):
    """Point handed to a boundary operation is not on the zero level set."""


class DegenerateSublevel(CMCSolveError):
    """Requested super-level set is too small to be resolved."""


class SolveFailure(CMCSolveError):
    """A Newton solve stopped short of convergence.  newton_solve attaches
    state, a solver.HomotopyState: the solve's t (its t_label, 1.0 outside
    a walk), its last accepted iterate and its NewtonInfo less the factor."""

    state = None


class GuardViolation(SolveFailure):
    """An admissibility guard refused a field at node (a flat node index,
    None for a single state).  It stops a Newton solve when it refuses the
    start or every step the line search tries."""

    node: int | None = None


class SpacelikeViolation(GuardViolation):
    """|Du| reached the Minkowski light-cone guard at some node."""

    def __init__(self, grad_norm: float, node: int | None = None):
        self.grad_norm = float(grad_norm)
        self.node = node
        where = f" at node {node}" if node is not None else ""
        super().__init__(f"spacelike guard violated{where}: |Du| = {grad_norm:.9g}")


class ConvexityLoss(GuardViolation):
    """Hessian eigenvalue dropped below the uniform convexity guard."""

    def __init__(self, eig_min: float, node: int | None = None):
        self.eig_min = float(eig_min)
        self.node = node
        where = f" at node {node}" if node is not None else ""
        super().__init__(f"convexity guard violated{where}: min eig = {eig_min:.9g}")


class NonConvergence(SolveFailure):
    """Newton solve failed: its budget ran out, its line search stalled, its
    linear solve failed, or a residual or direction was not finite.
    residual_norm is the inf-norm of the last residual tested."""

    def __init__(self, message: str, residual_norm: float | None = None):
        self.residual_norm = residual_norm
        super().__init__(message)


class SeedFailure(CMCSolveError):
    """No admissible initial field could be constructed."""


class InversionFailure(CMCSolveError):
    """Gradient-map inversion failed: the target point lies outside the
    numerical gradient image."""

    def __init__(self, gap: float, point=None):
        self.gap = float(gap)
        self.point = point
        super().__init__(f"gradient inversion failed: boundary gap {gap:.3e} at y={point}")


class SingularHessian(CMCSolveError):
    """Dual operator hit a numerically singular Hessian."""
