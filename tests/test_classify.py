import io
import itertools

import pytest

from adaptivecc.classify import (
    MANIFEST_COLUMNS,
    AccessProperties,
    SemanticProperties,
    Stage1,
    classify,
    classify_manifest,
    classify_stage1,
    classify_stage2,
)
from adaptivecc.store import CCClass


def access(mr, fw, un, ow):
    return AccessProperties(bool(mr), bool(fw), bool(un), bool(ow))


def semantic(con, num, com, dep, in_, gua):
    return SemanticProperties(bool(con), bool(num), bool(com), bool(dep), bool(in_), bool(gua))


# Access-profile rows of the wholesale example: (mr, fw, un, ow) -> stage 1.
STAGE1_ROWS = {
    "Customer.name": ((1, 0, 0, 1), Stage1.P),
    "Customer.surname": ((1, 0, 0, 1), Stage1.P),
    "Customer.id": ((1, 0, 0, 1), Stage1.P),
    "Stock.StockId": ((1, 0, 0, 1), Stage1.P),
    "Stock.ItemId": ((1, 0, 0, 1), Stage1.P),
    "Stock.quantity": ((0, 1, 0, 1), Stage1.AMBIGUOUS),
    "Account.debit": ((0, 0, 1, 0), Stage1.AMBIGUOUS),
    "Account.credit": ((0, 0, 1, 0), Stage1.AMBIGUOUS),
    "Account.limit": ((0, 0, 1, 0), Stage1.AMBIGUOUS),
    "Item.name": ((1, 0, 0, 1), Stage1.P),
    "Item.unit": ((1, 0, 0, 1), Stage1.P),
    "Item.price": ((0, 0, 1, 0), Stage1.AMBIGUOUS),
}

# Semantic rows for the ambiguous items: (con, num, com, dep, in, gua) -> class.
STAGE2_ROWS = {
    "Stock.quantity": ((1, 1, 1, 1, 0, 1), CCClass.E),
    "Account.credit": ((1, 1, 1, 1, 1, 0), CCClass.R),
    "Account.debit": ((1, 1, 1, 1, 1, 0), CCClass.R),
    "Item.price": ((0, 1, 0, 1, 0, 0), CCClass.O),
}

FINAL_CLASSES = {
    "Customer.name": CCClass.P,
    "Customer.surname": CCClass.P,
    "Customer.id": CCClass.P,
    "Stock.StockId": CCClass.P,
    "Stock.ItemId": CCClass.P,
    "Stock.quantity": CCClass.E,
    "Account.debit": CCClass.R,
    "Account.credit": CCClass.R,
    "Account.limit": CCClass.O,
    "Item.name": CCClass.P,
    "Item.unit": CCClass.P,
    "Item.price": CCClass.O,
}


def test_stage1_rows():
    for name, (vector, expected) in STAGE1_ROWS.items():
        assert classify_stage1(access(*vector)) is expected, name


def test_stage1_unowned_mostly_read_is_optimistic():
    assert classify_stage1(access(1, 0, 0, 0)) is Stage1.O


def test_stage1_rejects_invalid_partition():
    with pytest.raises(ValueError):
        access(1, 1, 0, 0)
    with pytest.raises(ValueError):
        access(0, 0, 0, 1)


def test_stage2_rows():
    for name, (vector, expected) in STAGE2_ROWS.items():
        assert classify_stage2(semantic(*vector)) is expected, name


def test_full_pipeline_reproduces_every_row():
    for name, expected in FINAL_CLASSES.items():
        vector, stage1 = STAGE1_ROWS[name]
        if stage1 is not Stage1.AMBIGUOUS:
            sem = None
        elif name in STAGE2_ROWS:
            sem = semantic(*STAGE2_ROWS[name][0])
        else:
            sem = semantic(0, 0, 0, 0, 0, 0)
        result = classify(access(*vector), sem)
        assert result.cc_class is expected, name
        assert result.ambiguous_stage1 == (stage1 is Stage1.AMBIGUOUS), name


def test_stage1_short_circuits_stage2():
    # an owned mostly-read item is P no matter what the semantics say
    result = classify(access(1, 0, 0, 1), semantic(1, 1, 1, 1, 1, 1))
    assert result.cc_class is CCClass.P
    assert not result.ambiguous_stage1


def test_ambiguous_all_false_semantics_defaults_to_o():
    result = classify(access(0, 1, 0, 0), semantic(0, 0, 0, 0, 0, 0))
    assert result.cc_class is CCClass.O
    assert result.ambiguous_stage1


def test_ambiguous_without_semantics_is_an_error():
    with pytest.raises(ValueError):
        classify(access(0, 1, 0, 0))


def test_totality_and_determinism_over_all_vectors():
    # every valid vector combination yields a class, twice the same one
    for base in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        for ow in (0, 1):
            p = access(*base, ow)
            for bits in itertools.product((0, 1), repeat=6):
                s = semantic(*bits)
                first = classify(p, s)
                second = classify(p, s)
                assert first == second
                assert first.cc_class in (CCClass.O, CCClass.R, CCClass.P, CCClass.E)


def test_manifest_roundtrip():
    manifest = io.StringIO(
        "id,mr,fw,un,ow,con,num,com,dep,in,gua\n"
        "Customer.name,1,0,0,1,,,,,,\n"
        "Stock.quantity,0,1,0,1,1,1,1,1,0,1\n"
        "Account.credit,0,0,1,0,1,1,1,1,1,0\n"
        "Item.price,0,0,1,0,0,1,0,1,0,0\n"
    )
    out = io.StringIO()
    assert classify_manifest(manifest, out) == 4
    assert out.getvalue().splitlines() == [
        "id,class",
        "Customer.name,P",
        "Stock.quantity,E",
        "Account.credit,R",
        "Item.price,O",
    ]


@pytest.mark.parametrize(
    "row, classified",
    [
        ("x,1,0,0,1", "P"),  # the semantic cells left out
        ("x,1,0,0,1,,", "P"),  # ... or left blank
        ("x,0,1,0,1,1,1,1,,,1,extra", "E"),  # all six, some blank; cells past the 11th ignored
    ],
)
def test_manifest_rows_may_leave_out_blank_or_surplus_cells(row, classified):
    out = io.StringIO()
    assert classify_manifest(io.StringIO(f"{','.join(MANIFEST_COLUMNS)}\n{row}\n"), out) == 1
    assert out.getvalue().splitlines()[1] == f"x,{classified}"


def test_manifest_rejects_bad_header():
    with pytest.raises(ValueError):
        classify_manifest(io.StringIO("id,mr\nx,1\n"), io.StringIO())
