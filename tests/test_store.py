import math
import random

import pytest

from adaptivecc.store import (
    CCClass,
    ClassPinningError,
    Constraint,
    ConstraintViolationError,
    DuplicateItemError,
    Store,
    UnknownItemError,
    VersionMismatchError,
)


def test_create_item_escrow_class_with_constraint():
    store = Store()
    item = store.create_item(
        "Stock.quantity", 10, CCClass.E, Constraint(lower=0, strict_lower=True)
    )
    assert item.version == 1
    assert item.static_class is CCClass.E
    assert item.current_class is CCClass.E
    assert not item.adaptable


def test_create_item_default_class_no_constraint():
    store = Store()
    item = store.create_item("Account.limit", 0, CCClass.O)
    assert item.version == 1
    assert item.current_class is CCClass.O
    assert item.adaptable


def test_create_item_initial_constraint_violation():
    store = Store()
    with pytest.raises(ConstraintViolationError):
        store.create_item("x", -1, CCClass.E, Constraint(lower=0, strict_lower=True))


def test_create_duplicate_rejected():
    store = Store()
    store.create_item("x", 1, CCClass.O)
    with pytest.raises(DuplicateItemError):
        store.create_item("x", 2, CCClass.O)


def test_read_committed_fresh_and_after_install():
    store = Store()
    store.create_item("x", 10, CCClass.O)
    assert store.read_committed("x") == (10, 1)
    store.install_version("x", 30)
    assert store.read_committed("x") == (30, 2)


def test_read_unknown_id():
    store = Store()
    with pytest.raises(UnknownItemError):
        store.read_committed("nope")


def test_install_with_expected_version():
    store = Store()
    store.create_item("x", 10, CCClass.O)
    assert store.install_version("x", 30, expected_version=1) == 2
    with pytest.raises(VersionMismatchError):
        store.install_version("x", 40, expected_version=1)


def test_install_constraint_violation():
    store = Store()
    store.create_item("x", 10, CCClass.E, Constraint(lower=0, strict_lower=True))
    with pytest.raises(ConstraintViolationError):
        store.install_version("x", -5)


def test_set_current_class_adaptable_item():
    store = Store()
    store.create_item("x", 0, CCClass.O)
    store.set_current_class("x", CCClass.P)
    assert store.item("x").current_class is CCClass.P
    store.set_current_class("x", CCClass.P)  # idempotent
    assert store.item("x").current_class is CCClass.P


def test_set_current_class_pinned_item():
    store = Store()
    store.create_item("x", 0, CCClass.P)
    with pytest.raises(ClassPinningError):
        store.set_current_class("x", CCClass.O)


def test_set_current_class_rejects_semantic_classes():
    store = Store()
    store.create_item("x", 0, CCClass.O)
    with pytest.raises(ClassPinningError):
        store.set_current_class("x", CCClass.E)


def test_version_monotonicity_random_installs():
    store = Store()
    store.create_item("x", 0, CCClass.O)
    rng = random.Random(7)
    seen = [store.read_committed("x")[1]]
    for _ in range(200):
        store.install_version("x", rng.randint(-100, 100))
        seen.append(store.read_committed("x")[1])
    assert seen == list(range(1, 202))


def test_constraint_interval_validation():
    with pytest.raises(ValueError):
        Constraint(lower=5, upper=5, strict_lower=True)
    c = Constraint(lower=0, upper=10)
    assert c.satisfied(0) and c.satisfied(10)
    assert not c.satisfied(-1) and not c.satisfied(11)
    strict = Constraint(lower=0, strict_lower=True)
    assert not strict.satisfied(0)
    assert strict.satisfied(0.001)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cc_class", [CCClass.R, CCClass.E])
def test_semantic_items_refuse_a_non_finite_value(cc_class, value):
    # R and E items do arithmetic on their value; from a NaN or infinite
    # one, every later value is NaN or infinite too.
    store = Store()
    with pytest.raises(ValueError, match="finite"):
        store.create_item("x", value, cc_class)
    assert store.create_item("x", 10**400, cc_class).committed_value == 10**400
    assert store.create_item("o", math.nan, CCClass.O).version == 1  # O/P values are opaque


@pytest.mark.parametrize("bounds", [{"lower": math.nan}, {"upper": math.nan}])
def test_constraint_refuses_a_nan_bound(bounds):
    with pytest.raises(ValueError, match="NaN"):
        Constraint(**bounds)
    assert Constraint(lower=-math.inf, upper=math.inf).satisfied(0)


def test_class_formats_as_its_letter():
    # The engine writes f"v{version}@{cls}" into every traced read and write.
    assert [f"@{cls}" for cls in CCClass] == ["@O", "@R", "@P", "@E"]
    assert f"{CCClass.P:>3}|{CCClass.E!s}|{CCClass.O!r}" == "  P|E|<CCClass.O: 'O'>"


@pytest.mark.parametrize("item_id", ["x;y", "p@O;q"])
def test_item_ids_refuse_the_items_cell_separator(item_id):
    # ';' separates the entries of terminations.csv's items cell: a log
    # naming "x;y" could not be read back, and "p@O;q" would read back as
    # the two items p and q.
    store = Store()
    with pytest.raises(ValueError, match="';'"):
        store.create_item(item_id, 0, CCClass.O)
    assert list(store.items()) == []
