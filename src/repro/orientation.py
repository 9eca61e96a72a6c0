"""Access orientation — the lowest-level shared vocabulary of the package.

Lives in its own module (no imports) so both the addressing layer and the
memory-system substrate can use it without import cycles; most code should
import it via :mod:`repro.core.addressing`.
"""

import enum


class Orientation(enum.IntEnum):
    """Direction of a memory access or of a cached line."""

    ROW = 0
    COLUMN = 1
    #: GS-DRAM gathered lines live in a third, shuffled address space; they
    #: never alias row- or column-oriented lines in the cache.
    GATHER = 2

    @property
    def opposite(self):
        if self is Orientation.ROW:
            return Orientation.COLUMN
        if self is Orientation.COLUMN:
            return Orientation.ROW
        raise ValueError("gathered lines have no opposite orientation")


#: The members by tag value.  ``Orientation(tag)`` walks the enum
#: metaclass's ``__call__`` on every decode, which shows up in the replay
#: hot loops; indexing this tuple returns the identical members.
ORIENTATIONS = (Orientation.ROW, Orientation.COLUMN, Orientation.GATHER)
