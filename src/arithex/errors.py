"""The base class of errors caused by input from outside the program."""


class InputError(ValueError):
    """A malformed or out-of-range input value.

    The CLI maps exactly this class to exit code 2; every other exception
    is an internal failure and propagates.
    """
