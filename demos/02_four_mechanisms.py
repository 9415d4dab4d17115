"""The four conflict semantics, one small scene each.

Every transaction is disconnected: it reads (each read returns the value
and its version), may idle for a while, then hands in its complete write
set.  What happens on a conflict depends on the class of the item:

* O  first committer wins, the later one fails version validation,
* P  first reader wins, everyone else queues on the exclusive lock,
* R  first n committers win: deltas replay, only constraints abort,
* E  first n readers win: the read reserves the delta up front.
"""

from adaptivecc import CCClass, Constraint, Engine, ReadStatus, Store, WriteIntent


def fresh_engine():
    store = Store()
    store.create_item("price", 100, CCClass.O)
    store.create_item("profile", 0, CCClass.P)
    store.create_item("balance", 10, CCClass.R, Constraint(lower=-50))
    store.create_item("stock", 10, CCClass.E, Constraint(lower=0, strict_lower=True))
    return Engine(store, clock=lambda: 0.0)  # the scenes need no timing


def finish(engine, txn, writes):
    engine.disconnect(txn)
    engine.submit_write_set(txn, writes)
    return engine.commit_pipeline(txn)


def optimistic_scene():
    engine = fresh_engine()
    first, second = engine.begin(), engine.begin()
    engine.read(first, "price")
    engine.read(second, "price")  # both saw version 1
    finish(engine, first, {"price": WriteIntent.absolute(110)})
    phase, reason = finish(engine, second, {"price": WriteIntent.absolute(95)})
    print(f"O: second committer ends {phase.value} ({reason.value}), "
          f"price is {engine.store.read_committed('price')[0]}")


def locking_scene():
    engine = fresh_engine()
    owner, visitor = engine.begin(), engine.begin()
    engine.read(owner, "profile")  # takes the exclusive lock
    outcome = engine.read(visitor, "profile", on_complete=lambda o: None)
    print(f"P: while the owner holds the lock the visitor is {outcome.status.value}")
    finish(engine, owner, {"profile": WriteIntent.absolute(1)})
    value, version = visitor.read_set["profile"].value, visitor.read_set["profile"].version
    print(f"P: after the owner commits, the visitor holds the lock and read "
          f"v{version} = {value}")


def reconciliation_scene():
    engine = fresh_engine()
    deposit, withdrawal = engine.begin(), engine.begin()
    engine.read(deposit, "balance")
    engine.read(withdrawal, "balance")  # same stale version, nobody cares
    finish(engine, deposit, {"balance": WriteIntent.delta(20)})
    phase, _ = finish(engine, withdrawal, {"balance": WriteIntent.delta(-10)})
    print(f"R: both committed ({phase.value}), balance is "
          f"{engine.store.read_committed('balance')[0]} (10 + 20 - 10)")


def escrow_scene():
    engine = fresh_engine()
    a, b, c = engine.begin(), engine.begin(), engine.begin()
    print(f"E: reservation of -4 {'granted' if engine.read_escrow(a, 'stock', -4).granted else 'refused'}")
    print(f"E: reservation of -5 {'granted' if engine.read_escrow(b, 'stock', -5).granted else 'refused'}")
    outcome = engine.read_escrow(c, "stock", -3)
    print(f"E: reservation of -3 refused, txn aborted ({outcome.abort_reason.value}): "
          "10 - 4 - 5 - 3 would breach quantity > 0")
    finish(engine, b, {"stock": WriteIntent.delta(-5)})
    finish(engine, a, {"stock": WriteIntent.delta(-4)})
    print(f"E: both granted reservations committed, stock is "
          f"{engine.store.read_committed('stock')[0]}")


def main():
    optimistic_scene()
    print()
    locking_scene()
    print()
    reconciliation_scene()
    print()
    escrow_scene()


if __name__ == "__main__":
    main()
