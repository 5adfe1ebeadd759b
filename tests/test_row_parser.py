"""Matrix rows, and the primality memo.

``instance_from_json`` reads a matrix of decimal-integer strings with one
regex pass and one ``map(int, ...)``; any other matrix goes to
``matrix_from_strings``, entry by entry through ``_parse_entry``.  Values
and error messages must be those of the field-by-field reader
``oracles.read_by_field``; each rows list is read as the Gram matrix of an
abelian variety.  A matrix keeps the text of its entries, made once and
written as ``oracles.matrix_to_strings`` writes it.

``is_prime`` keeps its last answer, so a request tests its one p once.
"""

import json
import random

import pytest

import phinmod.io_formats as io_formats
from phinmod.builders import CurveInstance
from phinmod.cli import run_checks
from phinmod.errors import ValidationError
from phinmod.exact_linalg import QMatrix, is_prime
from phinmod.graph_core import DualGraph
from phinmod.io_formats import _parse_entry, dump_json, instance_from_json, load_instance
from phinmod.weil_data import DEFAULT_POINT_BOUND

from conftest import INSTANCE_DIR
from oracles import is_prime_trial, matrix_to_strings, read_by_field


def av_with_gram(rows) -> dict:
    """An abelian variety at p = 5 with Gram matrix ``rows`` and a torus
    rank of its row count."""
    rank = len(rows) if isinstance(rows, list) else 0
    return {"kind": "av", "p": "5", "f": "1", "torus_rank": str(rank), "gram": rows,
            "b_frobenius": []}


def outcome(read, rows):
    try:
        m = read(av_with_gram(rows)).gram
    except ValidationError as exc:
        return (type(exc).__name__, str(exc))
    return (m.rows, m.cols, m.entries, tuple(type(x) for x in m.entries))


ENTRIES = [
    "1,2", "1.5", " 5", "5 ", "1_000", "+7", "-0", "007", "-12",
    "٣", "1٠",  # Arabic-Indic digits
    5, -3, 2.5, True, False, None,  # JSON numbers, booleans and null
    "9" * 4000, "9" * 4001, "-" + "9" * 4000,
    "3/4", "6/3", "-2/4", "1/0", "0/0", "1/", "/2",
    "", "0x10", "1e5",
]


@pytest.mark.parametrize("entry", ENTRIES, ids=[repr(e)[:24] for e in ENTRIES])
def test_rows_read_as_by_entry(entry):
    shapes = [
        [[entry]],
        [["1", entry]],
        [[entry, "2"], ["3", "4"]],
        [["1", "2"], ["3", entry]],
        [[1, "2"], [entry, "4"]],
        [[entry, entry], ["1", "2", "3"]],
    ]
    for rows in shapes:
        assert outcome(instance_from_json, rows) == outcome(read_by_field, rows), rows


@pytest.mark.parametrize("rows", [[], [[]], [[], []], [[], ["1"]], [["1"], []], "12", [["1"], "2"]])
def test_empty_and_malformed_rows_read_as_by_entry(rows):
    assert outcome(instance_from_json, rows) == outcome(read_by_field, rows)


def test_seeded_rows_read_as_by_entry():
    rng = random.Random("row parser")
    forms = ["0", "1", "-1", "+2", "007", "12345678901234567890", "3/4", "-6/3", "1/0", " 1", "1.0", 7]
    for _ in range(500):
        n = rng.randint(1, 4)
        rows = [[rng.choice(forms[:6]) if rng.random() < 0.8 else rng.choice(forms)
                 for _ in range(n)] for _ in range(rng.randint(1, 4))]
        assert outcome(instance_from_json, rows) == outcome(read_by_field, rows), rows


def test_integer_rows_skip_the_per_entry_reader(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return _parse_entry(x)

    monkeypatch.setattr(io_formats, "_parse_entry", counted)
    obj = av_large_q_shaped()
    obj["gram"][0] = ["+2", "001", "-0"]
    inst = instance_from_json(obj)
    assert inst.gram.entries == (2, 1, 0, 1, 2, 1, 0, 1, 2) and calls == []
    # a JSON integer is not a string: its matrix goes entry by entry
    obj["gram"][1][0] = 1
    assert instance_from_json(obj) == inst
    assert calls == ["+2", "001", "-0", 1, "2", "1", "0", "1", "2"]


def test_text_is_made_once_per_matrix_and_written_as_the_oracle_writes_it():
    m = QMatrix.from_rows([[0, -5], [1, 2]])
    inst = CurveInstance(DualGraph.build([("v0", 1)], [("e0", "v0", "v0")]), {"v0": m}, 5)
    text = m.entry_strings
    assert text == ("0", "-5", "1", "2")
    written = [json.loads(dump_json(inst))["components"]["v0"]["entries"] for _ in range(2)]
    assert written == [matrix_to_strings(m)] * 2 == [[["0", "-5"], ["1", "2"]]] * 2
    assert m.entry_strings is text


# -- the primality memo -------------------------------------------------------

def av_large_q_shaped() -> dict:
    """An abelian variety at a 9-digit p with f = 2: a rank-3 Gram matrix
    and two dense 4 x 4 Weil blocks, the companion matrix of
    (T^2 - a1 T + q)(T^2 - a2 T + q) conjugated by a unimodular matrix."""
    p, f = 999999937, 2
    q = p ** f
    blocks = []
    for a1, a2 in ((3, -7), (0, 12345)):
        c3, c2, c1, c0 = -(a1 + a2), 2 * q + a1 * a2, -q * (a1 + a2), q * q
        m = [[0, 0, 0, -c0], [1, 0, 0, -c1], [0, 1, 0, -c2], [0, 0, 1, -c3]]
        # conjugate by E = I + e_01: add row 1 to row 0, subtract column 0 from column 1
        m[0] = [x + y for x, y in zip(m[0], m[1])]
        for row in m:
            row[1] -= row[0]
        blocks.append({"type": "matrix", "entries": [[str(x) for x in r] for r in m]})
    return {"kind": "av", "p": str(p), "f": str(f), "torus_rank": "3",
            "gram": [["2", "1", "0"], ["1", "2", "1"], ["0", "1", "2"]],
            "b_frobenius": blocks}


def test_one_primality_test_per_request():
    cases = [(path.name, lambda path=path: load_instance(str(path)))
             for path in sorted(INSTANCE_DIR.glob("*.json"))]
    text = json.dumps(av_large_q_shaped())
    cases.append(("av_large_q", lambda: instance_from_json(json.loads(text))))
    for name, load in cases:
        # the previous request's p is forgotten first, so every request
        # starts with a miss
        is_prime.cache_clear()
        report = run_checks(load(), DEFAULT_POINT_BOUND)
        assert is_prime.cache_info().misses == 1, name
        assert is_prime.cache_info().hits > 0, name
        relations = json.loads(io_formats.dump_json(report))["checks"]["relations"]
        assert all(v == "pass" for v in relations.values()), name
        # with the parse already done, run_checks alone tests p once too
        inst = load()
        is_prime(4)
        before = is_prime.cache_info().misses
        run_checks(inst, DEFAULT_POINT_BOUND)
        assert is_prime.cache_info().misses - before == 1, name


def test_memo_never_answers_for_another_n():
    rng = random.Random("prime memo")
    pool = [0, 1, 2, 3, 4, 9, 25, 91, 97, 561, 7919, 7921, 999999937, 999999939]
    truth = {n: is_prime_trial(n) for n in pool}
    sequence = pool + pool[::-1] + [rng.choice(pool) for _ in range(2000)]
    for n in sequence:
        assert is_prime(n) == truth[n], n
    assert is_prime.cache_info().maxsize == 1
