"""The one base class of every coxglue failure, and the size error the
exact kernels share."""


class CoxglueError(Exception):
    """Bad input, inconsistent data or a failed check.  Every exception
    class of coxglue derives from it, beside its ValueError or
    RuntimeError parent; the command line reports any of them as one
    line and exit code 2."""


class DimensionMismatch(CoxglueError, ValueError):
    """Operands of an exact kernel whose sizes do not fit together."""
