"""Exception and warning types shared across the package."""
import os
import sys
import warnings

# the directory of the package's modules, as their code objects name it
_PACKAGE_DIR = os.path.dirname(__file__)


class InvalidParameterError(ValueError):
    """A constructor or operation argument violates its stated precondition."""


class NonFiniteSampleError(ValueError):
    """A sampled field contains NaN or infinity."""


class SingularMultiplierError(ValueError):
    """A spectral multiplier is non-finite at a mode present on the grid."""


class TruncationError(RuntimeError):
    """An operation would silently discard more coefficient energy than allowed."""


class DomainError(ValueError):
    """Arguments lie outside the region where a formula is defined."""


class SingularPointError(DomainError):
    """Kernel evaluation requested at (or too close to) the diagonal singularity."""


class QuadratureError(RuntimeError):
    """A quadrature failed to reach its error target under refinement."""


class ConfigError(ValueError):
    """A suite configuration is inconsistent; maps to CLI exit code 2."""


class UnknownSuiteError(ConfigError):
    """Requested verification suite does not exist."""


class TruncationWarning(UserWarning):
    """Coefficient tail energy beyond the resolved band exceeds tolerance."""


class AliasingWarning(UserWarning):
    """Spectral energy near the uniform-grid Nyquist ring exceeds tolerance."""


class ResolutionWarning(UserWarning):
    """Requested operation is near the resolution limit of the grid."""


def _warn_at_caller(message: str, category: type[Warning]) -> None:
    """warnings.warn attributed to the first frame outside the package:
    the user's call site, however deep in the package the warning was
    raised (a fixed stacklevel names a package line on some routes)."""
    frame, level = sys._getframe(1), 2
    while (frame is not None
           and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)
