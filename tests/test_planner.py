"""``repro.planner.array_digest``: the bit-identity digest every served
reply, ``repro run --digest`` and every reference comparison reads."""

import numpy as np
import pytest

from repro.planner import array_digest

_F32 = np.arange(24, dtype=np.float32).reshape(4, 6) / 7


#: hex digests of these arrays as ``tobytes()`` hashing printed them
@pytest.mark.parametrize("array, hexdigest", [
    (_F32,
     "d972c8e0772c6ca6fa823137f7ed75374e5cdd3899acea4ed95f535193f70132"),
    ((np.arange(30, dtype=np.uint16) * 2311).reshape(5, 6),
     "5d1baaeee31028010fb949a71adca61ec2c57033539ccc0174c5c6513b6d33e0"),
    (_F32[:, ::2],
     "c761a838d0f6172192b176a6a60bdc26872c49b9e49821ed440287d7cdfeb052"),
    (np.array(2.5, dtype=np.float32),
     "d6c5698a5df957238a5079740e6809f6de4016bcb5650354b8c4f4a2509c4b4d"),
    (np.zeros((0, 3), dtype=np.float32),
     "9f41c8912022aa1df26034be2921dcf84608cf1bf72e352ebb91be6d2bdffc0a"),
], ids=["float32", "uint16", "strided-view", "0-d", "empty"])
def test_array_digest_hexes_are_pinned(array, hexdigest):
    """Hashing the contiguous buffer in place prints the same hexes as
    hashing a copy of its bytes did: C-contiguous ``float32`` and
    ``uint16``, a non-contiguous view, a 0-d and an empty array."""
    assert array_digest(array) == hexdigest
