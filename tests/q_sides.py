"""Test-local lookups on the sides of a reflected union: the sides of one
group, and each side's index by its normal."""

from __future__ import annotations

from coxglue.polytope import QPolytope, QSide


def group_members(q: QPolytope, group: int) -> list[QSide]:
    return [s for s in q.sides if s.group == group]


def normal_index(q: QPolytope) -> dict[tuple[int, ...], int]:
    return {s.normal: s.index for s in q.sides}
