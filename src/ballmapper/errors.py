"""Exception types raised across the package.

Everything user-triggerable derives from ValidationError so the CLI can map
bad input to exit code 1 and genuine I/O failures (plain OSError) to 2.
"""


class ValidationError(ValueError):
    """Invalid user input: malformed tables, bad column names, bad parameters."""


class CsvFormatError(ValidationError):
    """Structurally broken CSV: duplicate header names or ragged rows."""


class MissingValueError(ValidationError):
    def __init__(self, row: int, column: str):
        super().__init__(f"missing value in column {column!r} at row {row}")
        self.row = row
        self.column = column


class NonNumericError(ValidationError):
    def __init__(self, row: int, column: str, cell: str):
        super().__init__(f"non-numeric cell {cell!r} in column {column!r} at row {row}")
        self.row = row
        self.column = column
        self.cell = cell


class EmptyAfterDropError(ValidationError):
    def __init__(self):
        super().__init__("no rows remain after dropping rows with missing values")


class ZeroVarianceError(ValidationError):
    def __init__(self, column: str):
        super().__init__(f"column {column!r} has zero variance")
        self.column = column


class NonPositiveEpsilonError(ValidationError):
    def __init__(self):
        super().__init__("epsilon must be positive")


class ColorLengthMismatchError(ValidationError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"color column has {got} values, expected {expected}")
        self.expected = expected
        self.got = got


class UnknownVariableError(ValidationError):
    def __init__(self, name: str):
        super().__init__(f"unknown column {name!r}")
        self.name = name
