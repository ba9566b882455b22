"""Label and number plumbing shared by the diagram and graph modules.

Labels are opaque tokens: ints, strings, or (for internally generated
bookkeeping names) tuples of labels.  Python refuses to order ints
against strings, so every sort in the library goes through label_key,
which totally orders the union by kind first (ints < strings < tuples),
then by value.  whole_number reads the counts of a document, and
listed refuses a string or an object where a list is read.  Every
document reader reads its fields with read_field, and a list of row
objects with read_rows; an error names the kind of document, the field
and the reason, and never echoes the document.  An error of a class
this package defines passes through them as it is, as its raiser has
named its field; a builtin TypeError, ValueError or AttributeError
(json's JSONDecodeError too) is reported as a malformed field.
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


def listed(items):
    """items, which a reader iterates as a JSON list.  A string or an
    object raises TypeError, where iterating would read its characters
    or its keys."""
    if isinstance(items, (str, dict)):
        raise TypeError(f"{type(items).__name__!r} object is not a list")
    return items


def decode_labels(items):
    return tuple(map(decode_label, listed(items)))


def decode_pairs(rows):
    # [[a, b], ...] as ((a, b), ...); a row that is not a pair raises
    # TypeError, which the document loaders report as a malformed field
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != 2:
            raise TypeError(f"entry {i} is not an [a, b] pair")
    return tuple((decode_label(a), decode_label(b)) for a, b in rows)


def read_field(obj, name: str, read, error, kind: str, default=None):
    """read(obj[name]), or read(default) when there is a default and obj
    lacks the field.  A document that is not an object, a missing field
    and a value that read refuses with a builtin TypeError, ValueError or
    AttributeError each raise error, naming the kind of document and the
    field; an error of a class this package defines passes through."""
    if not isinstance(obj, dict):
        raise error(f"{kind} document is not an object")
    if name in obj:
        value = obj[name]
    elif default is None:
        raise error(f"{kind} document lacks field {name!r}")
    else:
        value = default
    try:
        return read(value)
    except (TypeError, ValueError, AttributeError) as exc:
        if type(exc).__module__.partition(".")[0] == __package__:
            raise
        raise error(f"malformed {kind} field {name!r}: {exc}") from exc


def read_rows(obj, name: str, fields, error, kind: str, default=None):
    """The row objects listed in obj[name], each as the tuple of its
    (field, read) fields, read with read_field under the kind
    "<kind> '<name>' row <index>", which names the list and the row."""
    out, head = [], f"{kind} {name!r} row "
    for i, row in enumerate(read_field(obj, name, iter, error, kind, default)):
        row_kind = head + str(i)
        out.append(tuple([read_field(row, field, read, error, row_kind) for field, read in fields]))
    return out
