from __future__ import annotations

import refgraph


def test_every_public_name_resolves():
    # A name removed from the package but left in __all__ breaks "from refgraph import *".
    assert [name for name in refgraph.__all__ if not hasattr(refgraph, name)] == []
