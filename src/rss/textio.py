"""The one text writer and the block format every data file shares.

Every file ``rss`` writes goes through ``open_text``: UTF-8 with ``"\\n"``
line ends on every platform, so a seeded run gives byte-identical files.
Landscape, model-weight and snapshot files share one grammar:

    # comment            any number of lines, ignored on read
    key value            header, one pair per line
    [tag]                starts a block; a tag may hold words: [contact 0 1]
    v v v ...            one matrix row per line, numbers to 17 significant
                         digits (float64 round-trips bit-exactly)

A block runs to the next ``[tag]`` line or the end of the file. A loader
names the header keys its file must hold and each block's shape in terms of
them, and ``read_blocks`` checks both.
"""

from __future__ import annotations

import numpy as np


def open_text(path, comments=()):
    """Open ``path`` for writing and put each non-empty comment on a ``# `` line."""
    fh = open(path, "w", encoding="utf-8", newline="\n")
    fh.writelines(f"# {comment}\n" for comment in comments if comment)
    return fh


def write_text(path, text: str, comments=()) -> None:
    with open_text(path, comments) as fh:
        fh.write(text)


def write_blocks(path, comments, header: dict, blocks) -> None:
    """Write ``(tag, rows)`` blocks of 2-D arrays; float header values get
    17 digits. Values are formatted as Python numbers (``tolist``), which
    give numpy scalars' text."""
    lines = [
        f"{key} {format(value, '.17g') if isinstance(value, float) else value}"
        for key, value in header.items()
    ]
    for tag, rows in blocks:
        lines.append(f"[{tag}]")
        lines.extend(" ".join(format(v, ".17g") for v in row) for row in rows.tolist())
    write_text(path, "\n".join(lines) + "\n", comments)


def read_blocks(path, header_kinds: dict, block_shapes: dict) -> tuple[dict, list]:
    """Read a block file and check it against its header.

    ``header_kinds`` maps each header key the file must hold to ``int`` or
    ``float``. ``block_shapes`` maps each block name (a tag's first word) to
    ``(rows, columns, count)``: a size is a header key or a number, and
    ``count`` is how many such blocks the file holds (a header key or a
    number), or None for any number. Every failure is a ValueError whose
    message starts with the path. Returns (header values, [(tag, 2-D
    float64 array)]) in file order."""
    header: dict[str, str] = {}
    blocks: list[tuple[str, list]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or raw.startswith("#"):
                continue
            if line.startswith("["):
                if not line.endswith("]"):
                    raise ValueError(f"{path}: line {number} opens a block tag without "
                                     f"closing it: {line!r}")
                blocks.append((line[1:-1], []))
            elif blocks:
                try:
                    blocks[-1][1].append([float(x) for x in line.split()])
                except ValueError:
                    raise ValueError(f"{path}: line {number} of block [{blocks[-1][0]}] "
                                     f"is not a row of numbers: {line!r}") from None
            else:
                key, *value = line.split(maxsplit=1)
                if not value:
                    raise ValueError(f"{path}: header line {number} has no value: {line!r}")
                if key in header:
                    raise ValueError(f"{path}: header line {number} repeats {key!r}")
                header[key] = value[0]
    for tag, rows in blocks:
        for number, row in enumerate(rows, 1):
            if len(row) != len(rows[0]):
                raise ValueError(f"{path}: block [{tag}] is ragged: row 1 has "
                                 f"{len(rows[0])} values, row {number} has {len(row)}")
        if (tag.split() or [""])[0] not in block_shapes:
            raise ValueError(f"{path}: unexpected block [{tag}]")
    values = {}
    for key, kind in header_kinds.items():
        try:
            values[key] = kind(header[key])
        except (KeyError, ValueError):
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{path}: header line '{key}' is missing or not {what}") from None
    arrays = [(tag, np.array(rows) if rows else np.empty((0, 0))) for tag, rows in blocks]
    for name, (rows, columns, count) in block_shapes.items():
        named = [(tag, arr) for tag, arr in arrays if tag.split()[0] == name]
        if count is not None and len(named) != values.get(count, count):
            want = f"{count} = {values[count]}" if count in values else count
            raise ValueError(f"{path}: the file has {len(named)} [{name}] blocks, not {want}")
        shape = (values.get(rows, rows), values.get(columns, columns))
        for tag, arr in named:
            if arr.shape != shape:
                raise ValueError(f"{path}: block [{tag}] is {arr.shape[0]} x {arr.shape[1]}, "
                                 f"not {rows} x {columns} = {shape[0]} x {shape[1]}")
    return values, arrays
