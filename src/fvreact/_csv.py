"""The one row writer behind every CSV output."""


def write_rows(path, header, blocks) -> None:
    """Write ``header`` and then every block, each a list of columns of
    strings, one row per entry.  The bytes are those of the ``csv`` module's
    writer: no field of ours needs quoting, and rows end in "\\r\\n"."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            fh.write("".join([row + "\r\n"
                              for row in map(",".join, zip(*columns))]))
