"""Trace file I/O.

The paper's authors released their workloads as trace files
(github.com/RCNVMBenchmark/RCNVMTrace); this module provides the same
capability: any :class:`~repro.cpu.trace.Access` stream can be saved to
a portable text format and replayed later against any machine model.

Format (one access per line, ``#`` comments allowed)::

    <op> <address-hex> <size> <gap> [flags] [@ch,rk,bk,sa,row,col]

ops: ``R``/``W`` row-oriented read/write, ``CR``/``CW`` column-oriented,
``G`` gather (requires the ``@...`` device coordinate), ``U`` unpin
(orientation from the flags).  Flags: ``B`` barrier, ``P`` pin,
``ROW``/``COL`` address-space tag for ``U``.
"""

from repro.core.addressing import Coordinate, Orientation
from repro.cpu.trace import Access, Op
from repro.errors import ReproError

MAGIC = "# rcnvm-trace v1"

_OP_CODES = {
    Op.READ: "R",
    Op.WRITE: "W",
    Op.CREAD: "CR",
    Op.CWRITE: "CW",
    Op.GATHER: "G",
    Op.UNPIN: "U",
}
_CODE_OPS = {code: op for op, code in _OP_CODES.items()}


class TraceFormatError(ReproError):
    """A trace file line could not be parsed."""


def dump_access(access: Access) -> str:
    """Serialize one access to its line."""
    parts = [
        _OP_CODES[access.op],
        f"{access.address:#x}",
        str(access.size),
        str(access.gap),
    ]
    flags = []
    if access.barrier:
        flags.append("B")
    if access.pin:
        flags.append("P")
    if access.op == Op.UNPIN:
        flags.append("COL" if access.orientation is Orientation.COLUMN else "ROW")
    if flags:
        parts.append("".join(flags))
    if access.coord is not None:
        c = access.coord
        parts.append(f"@{c.channel},{c.rank},{c.bank},{c.subarray},{c.row},{c.col}")
    return " ".join(parts)


def parse_line(line: str) -> Access:
    """Parse one non-comment line back into an Access."""
    parts = line.split()
    if len(parts) < 4:
        raise TraceFormatError(f"malformed trace line: {line!r}")
    code, address_text, size_text, gap_text, *rest = parts
    try:
        op = _CODE_OPS[code]
    except KeyError:
        raise TraceFormatError(f"unknown op code {code!r} in {line!r}") from None
    try:
        address = int(address_text, 16)
        size = int(size_text)
        gap = int(gap_text)
    except ValueError as error:
        raise TraceFormatError(f"bad numbers in {line!r}: {error}") from None
    barrier = False
    pin = False
    orientation = None
    coord = None
    for token in rest:
        if token.startswith("@"):
            fields = token[1:].split(",")
            if len(fields) != 6:
                raise TraceFormatError(f"bad coordinate in {line!r}")
            coord = Coordinate(*(int(f) for f in fields))
        else:
            text = token
            if text.startswith("B"):
                barrier = True
                text = text[1:]
            if text.startswith("P"):
                pin = True
                text = text[1:]
            if text == "ROW":
                orientation = Orientation.ROW
            elif text == "COL":
                orientation = Orientation.COLUMN
            elif text:
                raise TraceFormatError(f"unknown flags {token!r} in {line!r}")
    if op == Op.GATHER and coord is None:
        raise TraceFormatError(f"gather without coordinate: {line!r}")
    return Access(
        op, address, size, gap, barrier=barrier, pin=pin, coord=coord,
        orientation=orientation,
    )


def save_trace(path, trace):
    """Write an access stream to ``path``; returns the access count."""
    count = 0
    with open(path, "w") as handle:
        handle.write(MAGIC + "\n")
        for access in trace:
            handle.write(dump_access(access) + "\n")
            count += 1
    return count


def load_trace(path):
    """Yield the accesses stored in ``path`` (lazily).

    The machine models replay the stream as it is: ``Machine.run`` copies
    it into a :class:`~repro.cpu.tracebuffer.TraceBuffer` once."""
    with open(path) as handle:
        first = handle.readline().rstrip("\n")
        if first != MAGIC:
            raise TraceFormatError(
                f"{path} is not an rcnvm trace (missing {MAGIC!r} header)"
            )
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            yield parse_line(line)

