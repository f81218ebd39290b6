"""Integer partitions viewed as Young diagrams, cycle types and highest weights,
and the standard fillings of (skew) Young diagrams.

A partition is stored as a trimmed tuple of weakly decreasing positive
integers; the empty tuple is the unique partition of 0.  Trimmed tuples are
canonical, so they can be used directly as dict keys and cache keys.
Comparisons that need equal lengths zero-pad on the fly.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import ge, index

Partition = tuple[int, ...]

_PLAIN_INT = frozenset((int,))  # exactly int: bool and numpy rows are not canonical

# canonical tuples already accepted, each keyed by its value and mapped to itself
_accepted: dict[Partition, Partition] = {}


def as_partition(parts) -> Partition:
    """Validate and canonicalize an iterable of row lengths.

    Raises ValueError unless the rows are weakly decreasing positive
    integers (trailing zeros are tolerated and trimmed).  A bool or a
    non-integral row is rejected, not rounded; numpy integers are accepted.
    A tuple of plain ints that is already canonical, the common case in
    every hot loop, is returned as it is instead of being rebuilt.

    Such a tuple is entered in the module table _accepted, and so is every
    partition partitions_of enumerates, so the same object is later
    re-accepted in O(1), without its type and order scan.
    The test is identity with the entry, not equality: (True, 1) and
    (np.int64(1), 1) equal the accepted (1, 1) and hash alike, yet must
    still be rejected or rebuilt, so an equal object that is not the entry
    takes the full path.  The first accepted object of each value stays
    the entry, so the table holds one tuple per distinct partition ever
    accepted and never more; it holds only validated immutable values, so
    nothing needs to clear it.  A lookup and an entry are each atomic under
    the GIL, and a lost race only leaves an equal object as the entry.
    """
    if _canonical(parts):
        return parts
    t = tuple(_row(p) for p in parts)
    while t and t[-1] == 0:
        t = t[:-1]
    for i, p in enumerate(t):
        if p < 1:
            raise ValueError(f"partition rows must be positive, got {t}")
        if i + 1 < len(t) and t[i + 1] > p:
            raise ValueError(f"partition rows must be weakly decreasing, got {t}")
    return t


def as_cycle_type(parts) -> Partition:
    """Canonicalize a cycle type: integer parts in any order, zeros dropped.

    The cycle lengths of a permutation form a multiset, so the parts are
    sorted into a partition; ValueError as for as_partition otherwise.
    """
    if _canonical(parts):
        return parts
    return as_partition(sorted(map(_row, parts), reverse=True))


def _canonical(parts) -> bool:
    """True for a tuple of plain ints (no bools) that is already a trimmed
    partition; the object is then entered in _accepted if its value is new."""
    try:
        if _accepted.get(parts) is parts:
            return True
    except TypeError:  # unhashable: a list, or a tuple holding one
        return False
    if type(parts) is tuple and _PLAIN_INT.issuperset(map(type, parts)) and (
            not parts or parts[-1] > 0 and all(map(ge, parts, parts[1:]))):
        _accepted.setdefault(parts, parts)
        return True
    return False


def _row(p) -> int:
    """One row length as a plain int; zeros are as_partition's to judge."""
    return _size(p, "partition rows", 0, plural=True)


_BOUNDS = {0: "non-negative", 1: "positive"}


def _size(x, name: str, least: int | None = 1, plural: bool = False) -> int:
    """x as a plain int of at least `least`, for the size argument `name`.

    A plain int passes after one type test; anything else is read through
    operator.index, so numpy integers pass.  A bool, a non-integer or a
    value below `least` raises ValueError naming `name` and x; least=None
    sets no lower bound.  `plural` words the message for a name that
    covers several values, such as "p and q".
    """
    if type(x) is not int:
        try:
            if isinstance(x, bool):
                raise TypeError
            x = index(x)
        except TypeError:
            kind = "integers" if plural else "an integer"
            raise ValueError(f"{name} must be {kind}, got {x!r}") from None
    if least is not None and x < least:
        raise ValueError(f"{name} must be {_BOUNDS.get(least, f'at least {least}')}, got {x}")
    return x


def rows(lam: Partition) -> int:
    """Number of rows; as a cycle type this is the cycle count c(lambda)."""
    return len(lam)


def partitions_of(n: int, max_rows: int | None = None) -> list[Partition]:
    """All partitions of n with at most max_rows rows, lexicographically decreasing.

    max_rows=None means unbounded.  n = 0 yields only the empty partition.
    Each call returns a fresh list, so callers may mutate it freely.  n and
    max_rows must be non-negative integers (numpy integers are accepted,
    bools are not); anything else raises ValueError.
    """
    n = _size(n, "n", 0)
    max_rows = n if max_rows is None else _size(max_rows, "max_rows", 0)
    return list(_partitions(n, max_rows))


@lru_cache(maxsize=None)
def _partitions(n: int, max_rows: int) -> tuple[Partition, ...]:
    out: list[Partition] = []

    def extend(prefix: list[int], remaining: int, cap: int, room: int) -> None:
        if remaining == 0:
            # built canonical; sharing the accepted object gives every row
            # bound's list the same tuples, which as_partition re-accepts in O(1)
            lam = tuple(prefix)
            out.append(_accepted.setdefault(lam, lam))
            return
        if room == 0:
            return
        # largest feasible next row first gives the lex-decreasing order
        for part in range(min(cap, remaining), 0, -1):
            # even taking `part` in every remaining row must reach `remaining`
            if part * room < remaining:
                break
            prefix.append(part)
            extend(prefix, remaining - part, part, room - 1)
            prefix.pop()

    extend([], n, n, max_rows)
    return tuple(out)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram (rows and columns interchanged)."""
    return _conjugate(as_partition(lam))


def _conjugate(lam: Partition) -> Partition:
    """conjugate on a canonical partition, unchecked."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def contains(mu: Partition, lam: Partition) -> bool:
    """True iff mu fits inside lam row-wise (mu_i <= lam_i, zero-padded)."""
    if len(mu) > len(lam):
        return False
    return all(m <= l for m, l in zip(mu, lam))


def class_size(alpha: Partition) -> int:
    """Size of the conjugacy class of S_n with cycle type alpha.

    h_alpha = n! / z_alpha with z_alpha = prod_i i^{m_i} m_i! over the
    multiplicities m_i of the part sizes i.  alpha may list its cycle
    lengths in any order; anything else raises ValueError.  Not memoised;
    class_sizes(n) is the memo.
    """
    alpha = as_cycle_type(alpha)
    n, z = 0, 1
    mult: dict[int, int] = {}
    for part in alpha:
        mult[part] = mult.get(part, 0) + 1
        n += part
    for part, m in mult.items():
        z *= part**m * factorial(m)
    return factorial(n) // z


@lru_cache(maxsize=None)
def class_sizes(n: int) -> tuple[int, ...]:
    """h_alpha for every alpha in partitions_of(n), in that order (memoised)."""
    return tuple(map(class_size, partitions_of(n)))


# --- standard tableaux ----------------------------------------------------

Tableau = tuple[tuple[int, ...], ...]


def standard_tableaux(outer: Partition, inner: Partition = ()) -> Iterator[Tableau]:
    """All standard fillings of the skew diagram outer/inner, one by one.

    A filling has the rows of outer: the cells of inner read 0 and the other
    N = |outer| - |inner| cells hold 1..N once each, increasing along rows
    and down columns.  Entry k goes into each row that can take it, top row
    first, so a straight shape starts with its row-reading filling.
    ValueError unless inner fits inside outer.
    """
    outer, inner = as_partition(outer), as_partition(inner)
    if not contains(inner, outer):
        raise ValueError(f"{inner} is not contained in {outer}")
    n, height = sum(outer) - sum(inner), len(outer)
    grid = [[0] * r for r in outer]
    filled = list(inner) + [0] * (height - len(inner))  # row lengths taken so far

    def fillings() -> Iterator[Tableau]:
        # depth-first on an explicit stack, so any number of boxes fits
        placed: list[int] = []  # the row of each entry 1..len(placed)
        r = 0  # the first row to try for the next entry
        while True:
            if len(placed) == n:
                yield tuple(map(tuple, grid))
                r = height
            while r < height and (filled[r] == outer[r] or r and filled[r - 1] == filled[r]):
                r += 1  # row r is full, or the cell above its next cell is empty
            if r < height:
                grid[r][filled[r]] = len(placed) + 1
                filled[r] += 1
                placed.append(r)
                r = 0
            elif placed:  # no row left for this entry: take back the last one
                r = placed.pop()
                filled[r] -= 1
                grid[r][filled[r]] = 0
                r += 1
            else:
                return

    return fillings()


def first_standard_tableau(shape: Partition) -> Tableau:
    """The row-reading filling: 1..n left to right, top to bottom."""
    return next(standard_tableaux(shape))


def tableau_shape(t: Tableau) -> Partition:
    return as_partition(len(row) for row in t)


def check_standard_tableau(t: Tableau) -> None:
    """ValueError unless t is a standard filling of a straight shape."""
    shape = tableau_shape(t)
    n = sum(shape)
    seen = sorted(v for row in t for v in row)
    if seen != list(range(1, n + 1)):
        raise ValueError("filling must use 1..n exactly once")
    for r, row in enumerate(t):
        for c, v in enumerate(row):
            if c + 1 < len(row) and row[c + 1] <= v:
                raise ValueError("rows must increase to the right")
            if r + 1 < len(t) and c < len(t[r + 1]) and t[r + 1][c] <= v:
                raise ValueError("columns must increase downwards")


def skew_standard_count(outer: Partition, inner: Partition) -> int:
    """Number of standard fillings of the skew diagram outer/inner.

    Counts the output of standard_tableaux one filling at a time.
    Deliberately brute force: this is the independent oracle the algebraic
    identities are checked against, so it stays dumb.  ValueError unless
    inner fits inside outer.
    """
    return sum(1 for _ in standard_tableaux(outer, inner))


def hooks(lam: Partition) -> tuple[tuple[int, ...], ...]:
    """Hook lengths per box: arm + leg + 1.

    Memoised; rows are tuples, so a caller cannot corrupt the memo.
    """
    return _hooks(as_partition(lam))


@lru_cache(maxsize=None)
def _hooks(lam: Partition) -> tuple[tuple[int, ...], ...]:
    """hooks on a canonical partition, unchecked."""
    conj = _conjugate(lam)
    return tuple(
        tuple(lam[i] - (j + 1) + conj[j] - i for j in range(lam[i]))
        for i in range(len(lam))
    )


def normalized(lam: Partition) -> tuple[Fraction, ...]:
    """The spectrum lambda_i / |lambda| as exact fractions."""
    n = sum(lam)
    if n == 0:
        raise ValueError("cannot normalize the empty partition")
    return tuple(Fraction(p, n) for p in lam)


def parse_partition(text: str) -> Partition:
    """Parse the JSON-array syntax used on the command line, e.g. "[3,2,1]"."""
    return as_partition(_json_array(text))


def parse_cycle_type(text: str) -> Partition:
    """parse_partition for a cycle type: the lengths may come in any order."""
    return as_cycle_type(_json_array(text))


def _json_array(text: str) -> list:
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a partition: {text!r}") from exc
    if not isinstance(data, list):
        raise ValueError(f"not a partition: {text!r}")
    return data


def format_partition(lam: Partition) -> str:
    """Inverse of parse_partition: "[3,2,1]"."""
    return "[" + ",".join(str(p) for p in lam) + "]"
