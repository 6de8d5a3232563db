"""Exception types shared across the library.

The command line maps these onto exit codes: usage errors are raised by
the parser itself, PreconditionError exits with 2, IntegrityError with 3.
"""

from __future__ import annotations


class ContactConicsError(Exception):
    """Base class for all library errors."""


class ParseError(ContactConicsError):
    """Input text does not conform to the documented grammar."""


class PreconditionError(ContactConicsError):
    """An operation was called outside its documented domain."""


class IntegrityError(ContactConicsError):
    """Stored or derived data failed a re-verification identity."""


class InfiniteMultiplicityError(PreconditionError):
    """Curves share a component through the requested point."""


class NotKRationalError(PreconditionError):
    """A required point or root is not rational over Q(r2, i)."""


class UnsupportedSectionError(PreconditionError):
    """A section this layer cannot handle: its coordinates are not polynomial
    where local fiber geometry needs them, or its chart curve x = x(t) is off
    the line/conic stratum."""
