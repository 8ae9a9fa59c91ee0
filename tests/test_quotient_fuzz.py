"""Fuzzing ``cover-report`` with quotient JSON: a well-formed description
from the schema's keys, with some values replaced by arbitrary JSON.
Whatever the file holds, the command exits 0 or 2 and raises nothing."""

import json
import os
import tempfile

import pytest

from coverhom.cli import main

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SMALL = st.integers(-2, 8)
SCALARS = st.one_of(SMALL, st.floats(width=32), st.text(max_size=3), st.booleans(), st.none())
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=10)


def _mostly(strategy):
    """Values of ``strategy``, now and then replaced by arbitrary JSON."""
    return st.one_of(strategy, strategy, strategy, VALUES)


TERM = st.tuples(_mostly(st.lists(st.integers(-1, 3), max_size=3)), _mostly(SMALL)).map(list)
IMAGES = {
    "perm": st.integers(1, 4).flatmap(lambda n: st.permutations(list(range(n)))),
    "residue": st.lists(SMALL, min_size=1, max_size=2),
    "unit": st.lists(TERM, max_size=3).map(lambda terms: {"monomials": [[[], 1]] + terms}),
}
ALGEBRA = st.fixed_dictionaries({
    "kind": _mostly(st.sampled_from(("free", "sorted", "m", "quat"))),
    "r": _mostly(st.sampled_from((2, 3, 5))),
    "k": _mostly(st.sampled_from((1, 2))),
    "ngens": _mostly(st.sampled_from((1, 2, 4))),
})
KEYS = ("domain", "rank", "genus", "type", "mod", "images", "algebra")


@st.composite
def quotients(draw):
    domain = draw(st.sampled_from(("free", "surface")))
    itype = draw(st.sampled_from(sorted(IMAGES)))
    rank = draw(st.integers(1, 2)) if domain == "free" else 2
    ngens = rank if domain == "free" else 4
    data = {
        "domain": domain,
        "rank" if domain == "free" else "genus": rank,
        "type": itype,
        "images": draw(st.lists(_mostly(IMAGES[itype]), min_size=ngens, max_size=ngens)),
    }
    if itype == "residue":
        data["mod"] = draw(st.sampled_from((2, 3, 5)))
    if itype == "unit":
        data["algebra"] = draw(ALGEBRA)
    for key in draw(st.sets(st.sampled_from(KEYS), max_size=2)):
        if draw(st.booleans()):
            data[key] = draw(VALUES)
        else:
            data.pop(key, None)
    return data


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(quotients(), quotients(), quotients(), VALUES))
def test_cover_report_survives_any_quotient(quotient):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "q.json")
        with open(path, "w") as fh:
            json.dump(quotient, fh)
        code = main(["cover-report", "--quotient", path, "--guard-vertices", "200",
                     "--out", os.path.join(tmp, "report.json")])
    assert code in (0, 2)
