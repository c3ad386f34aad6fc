"""Shared exception types.

Two kinds matter to callers: inputs that break a documented invariant or
precondition (ValidationError) and requests outside the implemented scope,
such as a degree bound or an honestly undecidable question (CapabilityError).
The CLI maps them to exit codes 1 and 2. json_list is the shared check
that a JSON field meant to be a list is one.
"""


class ValidationError(ValueError):
    pass


class CapabilityError(RuntimeError):
    pass


def json_list(value, what):
    """value, when it is a JSON list; a string would otherwise be read one
    character per entry."""
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a JSON list")
    return value
