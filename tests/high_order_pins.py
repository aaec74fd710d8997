"""Byte pins of the CLI pipelines on a Christoffel transform at order 256.

The six calls read t256, `moments laguerre --order 257 --alpha 1 |
transform christoffel --c=-1/3`, at OPOLY_MAX_ORDER = 257, and take
about 4 s in process.  Tier-1 does not collect this file, since its name
does not match test_*.py; CI runs it as its own step:

    PYTHONPATH=src python -m pytest -q tests/high_order_pins.py

Its pins are formed as test_band_pins.py forms them, each call on its
own and each group as one sha256 of its calls' stdout, and its table is
fixtures/high_order_pins.json; run this file to print it afresh:

    PYTHONPATH=src python tests/high_order_pins.py > tests/fixtures/high_order_pins.json
"""

import json

import test_band_pins as pins
from conftest import FIXTURE_DIR

T256 = "moments laguerre --order 257 --alpha 1 | transform christoffel --c=-1/3"
TABLE = FIXTURE_DIR / "high_order_pins.json"

HIGH_ORDER_GROUPS = {
    # pinned at the routes that computed u's recurrence and u^{-1}, and
    # the transform's first-associated polynomials, twice
    "single-read identities on a Christoffel transform at order 256": (
        "257",
        pins.on_input(T256, ("relationlu", "geronimus+assoc"), "--n 120 --c=-1 --m0=7/3"),
    ),
    # pinned at the checks that built P and Q degree by degree
    "quadratic-division identities on a Christoffel transform at order 256": (
        "257",
        pins.on_input(T256, ("conex2", "propLUinversa"), "--n 120 --c=-1 --m0=7/3 --m1=1/5"),
    ),
    # pinned at the checks that built R, S and the associated polynomials
    "christoffel+assoc on a Christoffel transform at order 256": (
        "257",
        pins.on_input(T256, ("christoffel+assoc",), "--n 120 --c=-1 --m0=7/3"),
    ),
    # pinned at the check that built P and Ptilde
    "kernel representation on a Christoffel transform at order 256": (
        "257",
        pins.on_input(T256, ("repChris",), "--n 120 --c=-1"),
    ),
}


def test_every_order_256_record_keeps_its_bytes():
    pins.assert_pins_hold(pins.pipeline_pins(HIGH_ORDER_GROUPS), TABLE)


if __name__ == "__main__":
    print(json.dumps(pins.pipeline_pins(HIGH_ORDER_GROUPS), indent=1, sort_keys=True))
