"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: bad input (UsageError) exits 1;
numerical ill-posedness (clustered spectra, duplicate points, failed
factorizations, results beyond the float range) exits 2.

Coincident points follow that rule in every subcommand that reads a
configuration file, and none of them prints a result row:

- `cond --diag` raises DuplicatePointsError (exit 2);
- `perturb --diag` builds Diag(z), whose spectrum is clustered, and raises
  ClusteredSpectrumError (exit 2);
- `asymptotics --file` raises DuplicatePointsError (exit 2), from
  `extremal.convergence_study`, when a requested prefix of the file holds a
  repeated point;
- `optimize --file` raises NumericalError (exit 2): the soft gap of the
  start is undefined.

The library function `extremal.separation_functional` does not raise: it
returns +inf for coincident points, the value the optimizer compares against.

Bad input is detected once, where it is used: each library function checks
its own arguments and raises UsageError, a ValueError, so callers that catch
ValueError keep working (a negative seed is rejected by OptimizerConfig
and by perturbation_experiment alike: "seed must be nonnegative").  The CLI
checks only what the library cannot know: how its flags relate, its size
limits and the files it reads.  Any other ValueError exits 2: an epsilon
too large for perturbation_experiment to match eigenvalues unambiguously,
and numpy's LinAlgError.  Fewer than two
points is bad input, rejected on the first lines of the functions that need
two, before computing anything: `cond` and `perturb` on a 1x1 matrix file
or a one-point `--diag` CSV, `asymptotics --n-list 1` and `optimize --n 1`.

Paths are bad input by one rule.  A reader that cannot open or decode its
file says `cannot read matrix file PATH: ...` (linalg.read_matrix) or
`cannot read configuration file PATH: ...` (cli.read_configuration_csv);
an unwritable output is `cannot write PATH: ...`; two of a run's paths
(FILE or --file, --output, --manifest, --trace) that resolve to one file
are rejected before any work; and a stdout whose reader has gone away
(`eigencond lattice --n 100000 | head -1`) exits 1 with an empty stderr.
"""


class UsageError(ValueError):
    """Bad input: an argument outside its domain, a bad command line, an
    unreadable file or malformed file content."""


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
