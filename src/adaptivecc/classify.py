"""Static derivation of an item's CC class from its property vectors.

Stage one looks at the access profile (mostly-read / frequently-written /
unknown, plus ownership) and decides P, O, or ambiguous.  Stage two
resolves ambiguous items from their semantic properties: escrow when a
guarantee is needed on a constrained commutative numeric, reconciliation
when a user-input-independent dependency function exists, and O otherwise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import Optional, TextIO

from .store import CCClass


class Stage1(Enum):
    P = "P"
    O = "O"
    AMBIGUOUS = "A"


@dataclass(frozen=True)
class AccessProperties:
    """Access profile booleans: exactly one of mr/fw/un holds."""

    mr: bool  # mostly read
    fw: bool  # frequently written
    un: bool  # unknown read/write balance
    ow: bool  # accessing transactions own the item for their lifetime

    def __post_init__(self) -> None:
        if int(self.mr) + int(self.fw) + int(self.un) != 1:
            raise ValueError("exactly one of mr, fw, un must be set")


@dataclass(frozen=True)
class SemanticProperties:
    """Semantic booleans feeding the second classification stage.

    ``in_`` is user-input independence (trailing underscore dodges the
    keyword).  A known dependency function without commutativity is
    accepted as input: such items simply fail both the escrow and the
    reconciliation premises and fall through to O.
    """

    con: bool  # a constraint exists
    num: bool  # numeric type
    com: bool  # operations commute
    dep: bool  # a dependency function is known
    in_: bool  # user input independence
    gua: bool  # a success guarantee is needed at read time


@dataclass(frozen=True)
class ClassificationResult:
    cc_class: CCClass
    ambiguous_stage1: bool


def classify_stage1(p: AccessProperties) -> Stage1:
    """P for owned mostly-read items, O for unowned mostly-read, else A.

    Ownership alone does not force P: a frequently written owned item is
    ambiguous and goes to stage two.
    """
    if p.ow and p.mr:
        return Stage1.P
    if p.mr and not p.ow:
        return Stage1.O
    return Stage1.AMBIGUOUS


def classify_stage2(s: SemanticProperties) -> CCClass:
    """Resolve an ambiguous item to E, R, or the default O.

    A needed guarantee is strictly stronger than reconcilability, so the
    escrow premise is tested first.
    """
    if s.con and s.num and s.com and s.gua:
        return CCClass.E
    if s.in_ and s.dep and s.com:
        return CCClass.R
    return CCClass.O


def classify(
    p: AccessProperties, s: Optional[SemanticProperties] = None
) -> ClassificationResult:
    """Full two-stage pipeline; ambiguity never escapes.

    ``s`` is required exactly when stage one is ambiguous.
    """
    first = classify_stage1(p)
    if first is Stage1.P:
        return ClassificationResult(CCClass.P, ambiguous_stage1=False)
    if first is Stage1.O:
        return ClassificationResult(CCClass.O, ambiguous_stage1=False)
    if s is None:
        raise ValueError("ambiguous access profile needs semantic properties")
    return ClassificationResult(classify_stage2(s), ambiguous_stage1=True)


MANIFEST_COLUMNS = ["id", "mr", "fw", "un", "ow", "con", "num", "com", "dep", "in", "gua"]


def _flag(cell: str) -> Optional[bool]:
    cell = cell.strip()
    if cell == "":
        return None
    return bool(int(cell))


def classify_manifest(infile: TextIO, outfile: TextIO) -> int:
    """Turn a property-vector CSV into an ``id,class`` mapping.

    Input header: ``id,mr,fw,un,ow,con,num,com,dep,in,gua``.  A row needs
    its four access cells; the six semantic cells may be left empty or out
    for items stage one already decides, but a row that fills one of them
    needs all six.  Cells may be blank; cells past the eleventh are ignored.
    Returns the number of items classified; a malformed row raises ValueError.
    """
    reader = csv.reader(infile)
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header] != MANIFEST_COLUMNS:
        raise ValueError(f"manifest header must be {','.join(MANIFEST_COLUMNS)}")
    writer = csv.writer(outfile)
    writer.writerow(["id", "class"])
    count = 0
    for row in reader:
        if not row or not row[0].strip():
            continue
        item_id = row[0].strip()
        flags = [_flag(c) for c in row[1:11]]
        filled = any(f is not None for f in flags[4:])  # some semantic cell is filled
        if len(flags) < 4 or (filled and len(flags) < 10):
            raise ValueError(
                f"line {reader.line_num} ({item_id}): needs 4 access cells, "
                "then none or all 6 semantic cells"
            )
        p = AccessProperties(*(bool(f) for f in flags[:4]))
        semantic = SemanticProperties(*(bool(f) for f in flags[4:])) if filled else None
        result = classify(p, semantic)
        writer.writerow([item_id, result.cc_class.value])
        count += 1
    return count
