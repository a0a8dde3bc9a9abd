"""Exception hierarchy shared across the package.

The CLI maps these onto stable exit codes: ConfigError -> 2,
DataIOError -> 3, and NumericError, DomainError (a value outside an
operator's domain) and ContractError (an API misuse met mid-computation,
such as a step with no gradient) -> 4.  Any other RuasError exits with 2.
"""


class RuasError(Exception):
    pass


class ShapeError(RuasError):
    pass


class ConfigError(RuasError):
    pass


class DomainError(RuasError):
    pass


class ContractError(RuasError):
    pass


class NumericError(RuasError):
    pass


class DataIOError(RuasError):
    pass
