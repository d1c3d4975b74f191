"""Deterministic seeding.

The one randomized routine in the package, the block-determinant trials of
``verification.check_block_det``, takes an explicit integer seed.  Its
sub-seed is derived with SHA-256 so that runs on different machines agree
bit for bit.  The prediction and the factorization oracle use no
randomness; the master seed reaches the oracle only as a recorded value.
"""

from __future__ import annotations

import hashlib

# Published default used by the CLI whenever --seed is not given.
DEFAULT_SEED = 271828


def derive_seed(seed: int, *parts: object) -> int:
    """Derive a 64-bit sub-seed from ``seed`` and a label path.

     ``parts`` may be ints or short strings; the mapping is injective on the
    inputs used in this package and stable across processes and runs.
    """
    h = hashlib.sha256()
    h.update(repr(int(seed)).encode())
    for part in parts:
        h.update(b"/")
        h.update(repr(part).encode())
    return int.from_bytes(h.digest()[:8], "big")
