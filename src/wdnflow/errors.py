"""Exception hierarchy shared by all wdnflow modules."""


class WdnflowError(Exception):
    """Base class for every error raised by this package."""


# --- INP parsing -----------------------------------------------------------

class InpError(WdnflowError):
    """Problem in an INP document. Carries the offending physical line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class MalformedSectionError(InpError):
    """A section row has the wrong arity or an unparseable token."""


class UnsupportedUnitsError(InpError):
    """[OPTIONS] Units is not LPS/CMS-convertible."""


class UnsupportedOptionError(InpError):
    """An [OPTIONS] or element setting outside the supported subset."""


class DanglingReferenceError(WdnflowError):
    """An element refers to an id that does not exist in the network."""


class InvalidNetworkError(WdnflowError):
    """Network validation found violations; they are attached as .violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid network: {lines}")


# --- hydraulics ------------------------------------------------------------

class NonConvergenceError(WdnflowError):
    """Newton iteration exhausted max_iterations."""

    def __init__(self, iterations: int, residual: float, t: float | None = None):
        self.iterations = iterations
        self.residual = residual
        self.t = t
        at = f" at t={t:.0f}s" if t is not None else ""
        super().__init__(
            f"hydraulic solver did not converge{at}: "
            f"{iterations} iterations, residual {residual:.3e}"
        )


class DisconnectedDemandError(WdnflowError):
    """A junction with positive demand has no path to any head source."""


class CurveFitError(WdnflowError):
    """Pump curve points do not admit a valid power-form fit."""


# --- quality ---------------------------------------------------------------

class NegativeConcentrationError(WdnflowError):
    """Internal consistency failure of the transport sweep; always a bug."""


# --- events / scada --------------------------------------------------------

class UnknownTargetError(WdnflowError):
    """A control override, actuator event or leak names an element that does
    not exist or is not of the kind it needs."""


class UnknownSensorRefError(WdnflowError):
    """A sensor reference does not resolve to a placed sensor column."""


# --- detection -------------------------------------------------------------

class InsufficientDataError(WdnflowError):
    """Too few calibration rows for the number of sensors."""


class ColumnMismatchError(WdnflowError):
    """Matrix column count differs between calibration and application."""


# --- control environment ---------------------------------------------------

class EpisodeFinishedError(WdnflowError):
    """step() called after the episode already reached its last step."""


class InvalidActionError(WdnflowError):
    """Action refers to unknown element ids or has invalid values."""


# --- configuration ---------------------------------------------------------

class ConfigError(WdnflowError):
    """A scenario configuration failed validation."""
