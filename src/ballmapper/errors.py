"""The one exception type the package raises for bad input.

The CLI maps a ValidationError to exit code 1 and genuine I/O failures (plain
OSError) to 2.
"""


class ValidationError(ValueError):
    """Invalid user input: malformed tables, bad column names, bad parameters."""
