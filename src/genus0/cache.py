"""Stand-in for the removed on-disk cache of pairing rows.

`perfbench/spans.py` still wraps `load` and requires zero hits in its
traced runs, which now holds by construction.  This module goes with that
benchmark change (ROADMAP item 5), like `cohft`'s `_build_sp` import.
"""


def load(n: int, section: str, key: str) -> None:
    """No payload is cached, for any n, section or key."""
    return None
