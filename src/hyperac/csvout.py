"""CSV output: the one float format (``%.17g``, which round-trips float64) and the
one row ending (CRLF, the ``csv`` module's default) of every table written.
Float rows are formatted a block at a time, one ``%`` operation per block."""

import csv

import numpy as np

FLOAT = "%.17g"
ROW_END = "\r\n"
BLOCK_ROWS = 4096  # bounds the text held at once


def fill(template: str, columns) -> str:
    """``template``, one ``FLOAT`` per cell, filled row by row from ``columns``."""
    return template % tuple(np.column_stack(columns).ravel().tolist())


def float_rows(columns):
    """Text blocks of the rows of the float ``columns``, up to the shortest one, as zip."""
    row = ",".join([FLOAT] * len(columns)) + ROW_END
    n = min(len(c) for c in columns)
    for start in range(0, n, BLOCK_ROWS):
        block = [c[start:min(start + BLOCK_ROWS, n)] for c in columns]
        yield fill(row * len(block[0]), block)


def write_csv(path, header, rows) -> None:
    """Write ``header``, then ``rows``: each a row of cells, or a ``str`` block of rows
    from ``float_rows`` or ``fill``.  Float cells take ``FLOAT``; other cells go to
    ``csv.writer``, which quotes one holding a comma, a quote, CR or LF."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator=ROW_END)
        writer.writerow(header)
        for row in rows:
            if isinstance(row, str):
                handle.write(row)
            else:
                writer.writerow([FLOAT % x if isinstance(x, float) else x for x in row])
