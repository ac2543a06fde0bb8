"""Off-registry accounting for the columnar data plane.

These numbers are deliberately *not* REGISTRY counters: the byte-identity
invariant (DESIGN.md §12/§13) requires the columnar and object paths to
produce identical counter dictionaries, so the honest encoded-bytes
accounting lives here and is surfaced by ``python -m repro.bench columnar``
only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["COLUMNAR_STATS", "ColumnarStats"]


@dataclass
class ColumnarStats:
    columns_encoded: int = 0
    encoded_bytes: int = 0
    shuffle_blocks: int = 0
    shuffle_block_nbytes: int = 0
    shuffle_object_bytes: int = 0

    def reset(self) -> None:
        self.columns_encoded = 0
        self.encoded_bytes = 0
        self.shuffle_blocks = 0
        self.shuffle_block_nbytes = 0
        self.shuffle_object_bytes = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


COLUMNAR_STATS = ColumnarStats()
