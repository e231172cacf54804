"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: usage problems exit 1 (among them an
output path that cannot be written, reported as `cannot write PATH: ...`);
numerical ill-posedness (clustered spectra, duplicate points, failed
factorizations, results beyond the float range) exits 2.

Coincident points follow that rule in every subcommand that reads a
configuration file, and none of them prints a result row:

- `cond --diag` raises DuplicatePointsError (exit 2);
- `perturb --diag` builds Diag(z), whose spectrum is clustered, and raises
  ClusteredSpectrumError (exit 2);
- `asymptotics --generator file` raises DuplicatePointsError (exit 2) when a
  requested prefix of the file holds a repeated point;
- `optimize --init file` raises NumericalError (exit 2): the soft gap of the
  start is undefined.

The library function `extremal.separation_functional` does not raise: it
returns +inf for coincident points, the value the optimizer compares against.

Fewer than two points is bad input, so every subcommand raises UsageError
(exit 1) for it before computing anything: `cond` and `perturb` on a 1x1
matrix file or a one-point `--diag` CSV, `asymptotics --n-list 1` and
`optimize --n 1`.
"""


class UsageError(Exception):
    """Bad command line, unreadable input file, or malformed file content."""


class NumericalError(Exception):
    """A computation failed or its result would be numerically meaningless."""


class IllPosedError(NumericalError):
    """The requested quantity is not well defined for this input."""


class ClusteredSpectrumError(IllPosedError):
    """Eigenvalues too close for eigenvector-level quantities to make sense."""

    def __init__(self, message: str, cluster=()):
        super().__init__(message)
        self.cluster = tuple(cluster)


class DuplicatePointsError(IllPosedError):
    """A configuration contains coincident points."""
