"""Exception types shared across the package."""


class DomainError(ValueError):
    """A precondition on the mathematical input is violated.

    Carries an optional ``payload`` dict so callers (notably the CLI) can
    emit a machine-parsable error object.
    """

    def __init__(self, message: str, payload: dict | None = None):
        super().__init__(message)
        self.payload = payload or {}


class ConsistencyError(RuntimeError):
    """Two routes that must agree (formula vs. enumeration, identity vs.
    oracle) disagreed.  Never masked; callers are expected to fail loudly."""


class RadiusExhausted(RuntimeError):
    """Enumeration found no nonzero vector inside the requested radius.

    The caller's search radius was below the lattice minimum; calling
    ``svp_enumerate`` without a radius cannot raise it.
    """
