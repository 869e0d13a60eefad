"""Exception types shared across the package."""


class CMCSolveError(Exception):
    """Base class for all package errors."""


class ConfigError(CMCSolveError):
    """Invalid run configuration (bad key, value out of range, schema mismatch)."""


class NotOnBoundary(CMCSolveError):
    """Point handed to a boundary operation is not on the zero level set."""


class DegenerateSublevel(CMCSolveError):
    """Requested super-level set is too small to be resolved."""


class GuardViolation(CMCSolveError):
    """An admissibility guard refused a field at node (a flat node index,
    None for a single state).  When one ends a Newton solve, newton_solve
    attaches the last accepted iterate as best_field and the solve's
    NewtonInfo, less its factor, as info, as NonConvergence carries them."""

    node: int | None = None
    best_field = None
    info = None


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


class StepRejection(CMCSolveError):
    """Backtracking line search shrank the Newton step below its floor."""


class NonConvergence(CMCSolveError):
    """Newton solve failed: its budget ran out, its line search stalled, its
    linear solve failed, or a residual or direction was not finite.

    Carries the best iterate seen so the caller can inspect or restart, and
    the failed solve's NewtonInfo (iterations up to the failure, no factor).
    """

    def __init__(self, message: str, best_field=None, residual_norm: float | None = None,
                 t: float | None = None, info=None):
        self.best_field = best_field
        self.residual_norm = residual_norm
        self.t = t
        self.info = info
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
