"""The Betti table type and the sizing guards' error, which the engine
(``betti``) and the Taylor oracle (``taylor``) both import from here."""

from typing import Mapping


class GuardError(RuntimeError):
    """A desk-scale sizing guard tripped; the computation was refused."""


class BettiTable:
    """Sparse graded Betti table: (homological index i, degree j) -> count.

    ``convention`` is ``of_ideal`` or ``of_quotient``; the two are related
    by the usual shift (quotient row 0 is a single 1 at degree 0, and
    quotient entry (i+1, j) is ideal entry (i, j)).
    """

    __slots__ = ("convention", "entries")

    def __init__(self, convention: str, entries: Mapping[tuple[int, int], int]):
        if convention not in ("of_ideal", "of_quotient"):
            raise ValueError(f"unknown convention {convention!r}")
        clean: dict[tuple[int, int], int] = {}
        for (i, j), c in entries.items():
            if c < 0:
                raise ValueError(f"negative Betti number at ({i}, {j})")
            if i < 0 or j < 0:
                raise ValueError(f"negative index at ({i}, {j})")
            if c:
                clean[(int(i), int(j))] = int(c)
        self.convention = convention
        self.entries = clean

    def __getitem__(self, key: tuple[int, int]) -> int:
        return self.entries.get(key, 0)

    def is_empty(self) -> bool:
        return not self.entries

    def reg(self) -> int:
        if self.is_empty():
            raise ValueError("the empty table has no regularity")
        return max(j - i for i, j in self.entries)

    def pd(self) -> int:
        if self.is_empty():
            raise ValueError("the empty table has no projective dimension")
        return max(i for i, _ in self.entries)

    def to_quotient(self) -> "BettiTable":
        if self.convention == "of_quotient":
            return self
        shifted = {(i + 1, j): c for (i, j), c in self.entries.items()}
        shifted[(0, 0)] = 1
        return BettiTable("of_quotient", shifted)

    def to_json_map(self) -> dict[str, int]:
        return {f"{i},{j}": self.entries[(i, j)] for (i, j) in sorted(self.entries)}

    def render_grid(self) -> str:
        """Macaulay-style grid: columns are i, rows are the occupied j - i."""
        if self.is_empty():
            return "(empty Betti table)"
        cols = range(0, self.pd() + 1)
        totals = [sum(c for (i, _), c in self.entries.items() if i == col) for col in cols]
        cells = {j - i: ["."] * len(cols) for i, j in self.entries}
        for (i, j), c in self.entries.items():
            cells[j - i][i] = str(c)
        width = [max(len(str(col)), len(str(totals[col])), *(len(r[col]) for r in cells.values())) for col in cols]
        head = max(len("total:"), *(len(f"{r}:") for r in cells))
        lines = [" " * head + " " + " ".join(str(c).rjust(width[c]) for c in cols)]
        lines.append("total:".rjust(head) + " " + " ".join(str(totals[c]).rjust(width[c]) for c in cols))
        for r in sorted(cells):
            lines.append(f"{r}:".rjust(head) + " " + " ".join(cells[r][c].rjust(width[c]) for c in cols))
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BettiTable)
            and self.convention == other.convention
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.convention, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"({i},{j}): {c}" for (i, j), c in sorted(self.entries.items()))
        return f"BettiTable[{self.convention}]{{{body}}}"
