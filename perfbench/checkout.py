"""Make ``import lax`` load the package from this checkout's ``src``."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(Exception):
    pass


def use_checkout_src() -> None:
    """Put ``src`` first on the import path and check that lax loads from it.

    Raises MissingSource when the checkout has no lax package, so that the
    benchmark never measures some other installed copy.
    """
    if not (SRC / "lax" / "__init__.py").is_file():
        raise MissingSource(f"no lax package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lax

    if Path(lax.__file__).resolve().parent != SRC / "lax":
        raise MissingSource(f"lax was imported from {lax.__file__}, not {SRC}")
