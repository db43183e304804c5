"""Paths of the checkout the benchmark runs in, and the qloci sources in it."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


class MissingSources(RuntimeError):
    """The checkout holds no qloci sources to measure."""


def use_checkout_sources():
    """Import qloci from this checkout's src/, never from anywhere else."""
    if not (SRC / "qloci" / "__init__.py").is_file():
        raise MissingSources("no qloci sources under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qloci

    if Path(qloci.__file__).resolve().parent != SRC / "qloci":
        raise MissingSources("qloci was imported from %s" % qloci.__file__)
