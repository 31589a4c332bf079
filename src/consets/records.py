"""The immutable records that the result types and the checks share.

``Check`` lives here rather than beside the census checks in ``oracle``,
so that ``recurrence`` (and with it ``charpoly``) can make checks
without importing the census.
"""

from __future__ import annotations

from typing import NamedTuple


class FrozenRecord:
    """An immutable record over its ``__slots__``, which ``__init__`` sets
    once through ``object.__setattr__``: equal and hashed by every slot,
    with a dataclass-style ``repr``.  It pickles and copies by calling the
    constructor with every slot in order; a subclass whose constructor
    takes fewer overrides ``__reduce__``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Check(NamedTuple):
    """One named verification with the cell it was exercised at."""

    name: str
    where: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = f": {self.detail}" if (self.detail and not self.ok) else ""
        return f"{status}  {self.name}  [{self.where}]{suffix}"
