"""Catalog claims read the item they are evaluated on."""

from dataclasses import replace

from redcycle import Permutation, catalog_item, catalog_names
from redcycle.catalog import _evaluate


def test_every_stated_permutation_is_read():
    # Composing a stated permutation with a transposition of two labels of
    # its sequence must turn False exactly the checks that state it, and no
    # other check of the item.
    cases = 0
    for name in catalog_names():
        item = catalog_item(name)
        for key, sigma in item.permutations.items():
            a, b = sorted(set(item.sequences[key]))[:2]
            wrong = sigma * Permutation.from_cycles((a, b))
            moved = replace(item, permutations={**item.permutations, key: wrong})
            failed = [check for check, ok, _ in _evaluate(moved) if not ok]
            stating = [
                claim[1] for claim in item.claims
                if claim[0] in ("reddening", "green") and claim[3] == key
            ]
            assert stating and failed == stating, (name, key, failed)
            cases += 1
    assert cases == 14
