"""The embedded sporadic quartic constructions, read from the package data.

Kept apart from ``quartic`` so that listing the constructions (the CLI's
``--construction`` choices) loads no polynomial arithmetic.
"""

from __future__ import annotations

import json
from importlib import resources


def load_constructions() -> dict:
    payload = resources.files("kstrata").joinpath("data/sporadic_quartics.json")
    return json.loads(payload.read_text(encoding="utf-8"))


def available_constructions() -> tuple[str, ...]:
    return tuple(sorted(load_constructions()))
