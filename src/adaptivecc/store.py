"""Versioned in-memory item table with per-item concurrency-control class tags.

Every data item carries a committed value, a monotonically increasing
version counter, a static CC class assigned at creation, and a current CC
class that the run-time controller may flip between O and P for adaptable
items.  Numeric items may carry an interval constraint that every committed
value must satisfy.

The store is single-threaded, like the engine that owns it: it takes no
locks, and all calls into one store must come from one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional


class CCClass(Enum):
    """The four concurrency-control classes an item can live in."""

    O = "O"  # optimistic snapshot validation, first-committer-wins
    R = "R"  # reconciliation of commutative deltas, first-n-committers-win
    P = "P"  # exclusive lock at read time, first-reader-wins
    E = "E"  # escrow reservation, first-n-readers-win

    def __str__(self) -> str:
        return self.value


# bound once: see the engine module docstring
_CLASS_O, _CLASS_R, _CLASS_P, _CLASS_E = CCClass.O, CCClass.R, CCClass.P, CCClass.E


class StoreError(Exception):
    pass


class DuplicateItemError(StoreError):
    pass


class UnknownItemError(StoreError):
    pass


class ConstraintViolationError(StoreError):
    pass


class VersionMismatchError(StoreError):
    pass


class ClassPinningError(StoreError):
    """Raised when reclassifying an item whose static class pins it."""


@dataclass(frozen=True)
class Constraint:
    """Closed/open interval bounds on a numeric item value; a bound is None
    (that side unbounded) or a number, never NaN."""

    lower: Optional[float] = None
    upper: Optional[float] = None
    strict_lower: bool = False
    strict_upper: bool = False

    def __post_init__(self) -> None:
        for bound in (self.lower, self.upper):
            if bound is not None and bound != bound:  # only NaN is unequal to itself
                raise ValueError("a constraint bound must not be NaN")
        if self.lower is not None and self.upper is not None:
            if self.strict_lower or self.strict_upper:
                if not self.lower < self.upper:
                    raise ValueError("lower bound must be below upper bound")
            elif not self.lower <= self.upper:
                raise ValueError("lower bound must not exceed upper bound")

    def satisfied(self, value: float) -> bool:
        if self.lower is not None:
            if self.strict_lower:
                if not value > self.lower:
                    return False
            elif not value >= self.lower:
                return False
        if self.upper is not None:
            if self.strict_upper:
                if not value < self.upper:
                    return False
            elif not value <= self.upper:
                return False
        return True


@dataclass
class VersionedItem:
    """One stored datum.

    ``committed_value`` is numeric for R/E items (their mechanisms do
    arithmetic); O/P items may carry any payload whose version is the only
    conflict-relevant state.  Versions start at 1 so 0 can act as a
    "never read" sentinel in diagnostics.
    """

    id: str
    committed_value: object
    static_class: CCClass
    current_class: CCClass
    constraint: Optional[Constraint] = None
    version: int = 1
    adaptable: bool = field(default=False)


class Store:
    """Item table; an install replaces an item's value and version at once."""

    def __init__(self) -> None:
        self._items: dict[str, VersionedItem] = {}

    def create_item(
        self,
        item_id: str,
        value: object,
        cc_class: CCClass,
        constraint: Optional[Constraint] = None,
    ) -> VersionedItem:
        if not item_id or ";" in item_id:
            # ';' separates the entries of terminations.csv's items cell
            raise ValueError(f"item id {item_id!r} must be non-empty and hold no ';'")
        if item_id in self._items:
            raise DuplicateItemError(item_id)
        if cc_class in (_CLASS_R, _CLASS_E) and (
            not isinstance(value, (int, float))
            or (isinstance(value, float) and not math.isfinite(value))  # ints are finite
        ):
            raise ValueError(f"{cc_class} item {item_id!r} needs a finite numeric value")
        if constraint is not None and not constraint.satisfied(value):
            raise ConstraintViolationError(
                f"initial value {value!r} of {item_id!r} violates constraint"
            )
        item = VersionedItem(
            id=item_id,
            committed_value=value,
            static_class=cc_class,
            current_class=cc_class,
            constraint=constraint,
            adaptable=(cc_class is _CLASS_O),
        )
        self._items[item_id] = item
        return item

    def item(self, item_id: str) -> VersionedItem:
        try:
            return self._items[item_id]
        except KeyError:
            raise UnknownItemError(item_id) from None

    def items(self) -> Iterator[VersionedItem]:
        return iter(self._items.values())

    def read_committed(self, item_id: str) -> tuple[object, int]:
        """Latest committed (value, version); never exposes uncommitted state."""
        item = self.item(item_id)
        return item.committed_value, item.version

    def install_version(
        self,
        item_id: str,
        new_value: object,
        expected_version: Optional[int] = None,
    ) -> int:
        """Commit-path primitive shared by all classes. Returns the new version."""
        item = self.item(item_id)
        if expected_version is not None and item.version != expected_version:
            raise VersionMismatchError(
                f"{item_id}: expected v{expected_version}, at v{item.version}"
            )
        if item.constraint is not None and not item.constraint.satisfied(new_value):
            raise ConstraintViolationError(f"{item_id}: value {new_value!r} violates constraint")
        item.committed_value = new_value
        item.version += 1
        return item.version

    def set_current_class(self, item_id: str, cc_class: CCClass) -> None:
        """Reclassify an adaptable item between O and P."""
        item = self.item(item_id)
        if not item.adaptable:
            raise ClassPinningError(
                f"{item_id} is statically {item.static_class}; cannot reclassify"
            )
        if cc_class not in (_CLASS_O, _CLASS_P):
            raise ClassPinningError(f"adaptable items move only between O and P, not {cc_class}")
        item.current_class = cc_class

