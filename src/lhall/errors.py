"""Exception types shared across the package, and the bases of its record
classes."""

from operator import attrgetter


class LhallError(Exception):
    """Base class for all package errors."""


class InvalidInputError(LhallError):
    """Raised when arguments violate a documented precondition."""


class ResourceLimitError(LhallError):
    """Raised before starting a computation whose size exceeds a configured cap."""


class NotPolynomialError(LhallError):
    """Raised when a count sequence fails to be polynomial of the expected degree."""


class InternalCheckError(LhallError):
    """Raised when a redundant internal consistency check fails.

    These guard invariants that should be unreachable; seeing one means a bug,
    not bad input.
    """


class _Record:
    """Equality and repr over the fields named in __match_args__, as a
    dataclass has them: equal only to an instance of the same class."""

    __match_args__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = attrgetter(*self.__match_args__)
            return fields(self) == fields(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A _Record that hashes by its fields and refuses assignment, so its
    __init__ stores them past __setattr__."""

    def __hash__(self):
        return hash(tuple([getattr(self, name)
                           for name in self.__match_args__]))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
