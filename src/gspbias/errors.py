"""Exception types shared across the package."""


class GspBiasError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyAuction(GspBiasError):
    """An auction operation received no participants."""


class InvalidScore(GspBiasError):
    """A ranking score is NaN, infinite, or negative."""


class DegeneratePrice(GspBiasError):
    """The winner's estimated CTR is zero, so the second-price quotient is undefined."""


class NoData(GspBiasError):
    """An estimator was asked to fit from a window with no impressions."""


class RankUnreachable(GspBiasError):
    """A conditional-on-rank quantity was requested for a rank with (near-)zero mass."""


class GridMismatch(GspBiasError):
    """Two density grids that must share bin edges do not."""


class HistogramTooWide(GspBiasError):
    """Samples spread over more lattice bins than one histogram may hold."""


class UndefinedCalibration(GspBiasError):
    """A calibration ratio has zero clicks in its denominator."""


class UndefinedRatio(GspBiasError):
    """A relative value/cost ratio has a zero denominator."""


class InvalidValue(GspBiasError, ValueError):
    """A run-plan field holds a value outside its domain; `field` names the field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field} {message}")


class RepeatedContext(GspBiasError, ValueError):
    """Two contexts of an A/B plan share a (site, pos) pair; `index` is the later one."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


class ConfigError(GspBiasError):
    """A run configuration failed validation; `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
