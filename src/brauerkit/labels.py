"""Label and number plumbing shared by the diagram and graph modules.

Labels are opaque tokens: ints, strings, or (for internally generated
bookkeeping names) tuples of labels.  Python refuses to order ints
against strings, so every sort in the library goes through label_key,
which totally orders the union by kind first (ints < strings < tuples),
then by value.  whole_number reads the counts of a document.
"""

from __future__ import annotations

from functools import lru_cache


# typed=True keeps True/1 distinct, so the bool rejection below survives
# caching; the cap is far above the ~7,300 keys of a graphs benchmark round
@lru_cache(maxsize=65_536, typed=True)
def label_key(x):
    if isinstance(x, bool):
        raise TypeError("booleans are not valid labels")
    if isinstance(x, int):
        return (0, x)
    if isinstance(x, str):
        return (1, x)
    if isinstance(x, tuple):
        return (2, tuple(label_key(y) for y in x))
    raise TypeError(f"unsupported label: {x!r}")


def sort_labels(labels):
    return sorted(labels, key=label_key)


def encode_label(x):
    # JSON keeps ints and strings as-is; tuples become tagged lists.
    if isinstance(x, (int, str)):
        return x
    if isinstance(x, tuple):
        return {"tuple": [encode_label(y) for y in x]}
    raise TypeError(f"unsupported label: {x!r}")


def decode_label(x):
    if isinstance(x, bool):
        raise TypeError("booleans are not valid labels")
    if isinstance(x, (int, str)):
        return x
    if isinstance(x, dict) and set(x) == {"tuple"}:
        return tuple(decode_label(y) for y in x["tuple"])
    raise TypeError(f"cannot decode label: {x!r}")


def whole_number(x) -> int:
    """x as an int: an int, an integral float or text such as " 7 ".  A
    bool or a non-integral number raises ValueError where int() would
    read it as 1 or truncate it."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise ValueError(f"not a whole number: {x!r}")
    return int(x)


def decode_pairs(rows):
    # [[a, b], ...] as ((a, b), ...); a row that is not a pair raises
    # TypeError, which the document loaders report as a malformed field
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != 2:
            raise TypeError(f"{row!r} is not an [a, b] pair")
    return tuple((decode_label(a), decode_label(b)) for a, b in rows)
