"""Cache line metadata.

A line is identified by a *key* that packs the line index (byte address
divided by the 64-byte line size) together with the address-space tag: the
paper's per-line **orientation bit** generalized to two bits so GS-DRAM's
shuffled gather space can coexist (Section 4.3.1, Figure 8).

Each RC-NVM line additionally carries eight **crossing bits**, one per
8-byte word, marking words that are simultaneously cached under the other
orientation (Section 4.3.2).
"""

from repro.geometry import CACHE_LINE_BYTES, WORDS_PER_LINE
from repro.orientation import ORIENTATIONS

#: Bit position where the orientation tag is packed into a line key.  Flat
#: byte addresses are at most ~48 bits, so line indices fit in 42 bits.
SPACE_SHIFT = 58


def line_key(address, orientation):
    """Pack a byte address and its address space into a cache-line key."""
    return (int(orientation) << SPACE_SHIFT) | (address // CACHE_LINE_BYTES)


def line_key_from_index(line_index, orientation):
    """Pack a 64-byte line index and its address space into a key."""
    return (int(orientation) << SPACE_SHIFT) | line_index


def key_orientation(key):
    """The address space a line key belongs to."""
    return ORIENTATIONS[key >> SPACE_SHIFT]


def key_line_index(key):
    """Line index (address // 64) within the key's address space."""
    return key & ((1 << SPACE_SHIFT) - 1)


def key_address(key):
    """Byte address of the first byte of the line, in its own space."""
    return key_line_index(key) * CACHE_LINE_BYTES


class CacheLine:
    """Metadata for one resident line."""

    __slots__ = ("key", "dirty", "pinned", "crossing")

    def __init__(self, key, dirty=False, pinned=False):
        self.key = key
        self.dirty = dirty
        self.pinned = pinned
        #: Bitmask over the line's 8 words; bit i set means word i is also
        #: cached under the opposite orientation (the crossing bits).
        self.crossing = 0

    @property
    def orientation(self):
        return key_orientation(self.key)

    def set_crossing(self, word_index):
        self.crossing |= 1 << word_index

    def clear_crossing(self, word_index):
        self.crossing &= ~(1 << word_index)

    def has_crossing(self, word_index):
        return bool(self.crossing >> word_index & 1)

    def __repr__(self):
        flags = "".join(
            flag for flag, on in (("D", self.dirty), ("P", self.pinned)) if on
        )
        return f"CacheLine({self.key:#x} {self.orientation.name}{' ' + flags if flags else ''})"


assert WORDS_PER_LINE == 8, "crossing bitmask assumes 8 words per line"
