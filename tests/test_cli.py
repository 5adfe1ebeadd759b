import hashlib
import json
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import phinmod._backend
import phinmod.exact_linalg
import phinmod.graph_core
import phinmod.phin_module
import phinmod.weil_data
from phinmod.builders import CurveInstance, build_from_curve
from phinmod.cli import main, run_checks
from phinmod.exact_linalg import QMatrix
from phinmod.fuzz import instance_stream
from phinmod.graph_core import DualGraph, monodromy_gram
from phinmod.io_formats import (
    Report,
    dump_json,
    failed_checks,
    instance_from_json,
    instance_to_json,
    report_all_pass,
)
from phinmod.phin_module import PolygonReport, RelationReport
from phinmod.weil_data import DEFAULT_POINT_BOUND, EllipticCurveSpec

from conftest import INSTANCE_DIR, tate_instance, theta_instance
from oracles import conjugated, count_points_euler, module_from_report


def write_instance(tmp_path: Path, obj, name="inst.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return str(path)


# "a/b" entries, reducing to an integer or not, and with b = 0
FRACTION_ENTRIES = ["1/2", "-3/2", "2/2", "-10/2", "0/7", "4/0"]


def assert_fraction_refused(tmp_path, capsys, obj, field, entry):
    assert main(["build", write_instance(tmp_path, obj)]) == 2
    err = capsys.readouterr().err
    assert f"field '{field}' has a bad entry: '{entry}' is not a decimal integer" in err
    assert "Traceback" not in err


class TestBuildCommand:
    def test_tate_golden_report(self, tmp_path, capsys):
        code = main(["build", str(INSTANCE_DIR / "tate.json")])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["module"]["phi"] == [["1", "0"], ["0", "5"]]
        assert report["module"]["n"] == [["0", "1"], ["0", "0"]]
        assert report["module"]["gram"] == [["1"]]
        assert report["module"]["t_newton"] == "1"
        assert report["module"]["t_hodge"] == "1"
        assert report["module"]["newton_slopes"] == [["0", "1"], ["1", "1"]]
        assert report["checks"]["curve_jacobian_agreement"] == "pass"

    def test_byte_determinism(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["build", str(INSTANCE_DIR / "theta.json"), "--out", str(out1)]) == 0
        assert main(["build", str(INSTANCE_DIR / "theta.json"), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_round_trip(self, tmp_path, capsys):
        assert main(["build", str(INSTANCE_DIR / "tate.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        rebuilt = module_from_report(report)
        assert rebuilt == build_from_curve(tate_instance())

    def test_av_instance(self, capsys):
        assert main(["build", str(INSTANCE_DIR / "av_tate.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "curve_jacobian_agreement" not in report["checks"]
        assert report["module"]["phi"] == [["1", "0"], ["0", "5"]]

    def test_missing_file(self, capsys):
        assert main(["build", "/nonexistent/path.json"]) == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["build", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_field_named(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"kind": "curve", "p": "5"})
        assert main(["build", path]) == 2
        assert "'f'" in capsys.readouterr().err

    def test_ragged_matrix_exit_2(self, tmp_path, capsys):
        obj = {
            "kind": "av",
            "p": "5",
            "f": "1",
            "torus_rank": "1",
            "gram": [["1", "0"], ["1"]],
            "b_frobenius": [],
        }
        assert main(["build", write_instance(tmp_path, obj)]) == 2
        assert "gram" in capsys.readouterr().err

    def test_indefinite_gram_exit_2(self, tmp_path, capsys):
        obj = {
            "kind": "av",
            "p": "5",
            "f": "1",
            "torus_rank": "1",
            "gram": [["0"]],
            "b_frobenius": [],
        }
        assert main(["build", write_instance(tmp_path, obj)]) == 2
        assert "positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", FRACTION_ENTRIES)
    def test_non_integral_gram_exit_2_naming_it(self, tmp_path, capsys, entry):
        obj = {"kind": "av", "p": "5", "f": "1", "torus_rank": "1",
               "gram": [[entry]], "b_frobenius": []}
        assert_fraction_refused(tmp_path, capsys, obj, "gram", entry)

    @pytest.mark.parametrize("entry", FRACTION_ENTRIES)
    def test_fraction_in_an_av_weil_block_exit_2_naming_it(self, tmp_path, capsys, entry):
        obj = {"kind": "av", "p": "5", "f": "1", "torus_rank": "0", "gram": [],
               "b_frobenius": [{"type": "matrix", "entries": [["0", "-5"], ["1", entry]]}]}
        assert_fraction_refused(tmp_path, capsys, obj, "b_frobenius[0].entries", entry)

    @pytest.mark.parametrize("entry", FRACTION_ENTRIES)
    def test_fraction_in_a_curve_component_exit_2_naming_it(self, tmp_path, capsys, entry):
        obj = {"kind": "curve", "p": "5", "f": "1",
               "graph": {"vertices": [{"id": "v0", "genus": "1"}], "edges": []},
               "components": {"v0": {"type": "matrix", "entries": [[entry, "-5"], ["1", "2"]]}}}
        assert_fraction_refused(tmp_path, capsys, obj, "components.v0.entries", entry)

    def test_build_line_times_the_request_and_its_write(self, tmp_path, capsys, monkeypatch):
        def slow_dump(report):
            time.sleep(0.05)
            return dump_json(report)

        monkeypatch.setattr("phinmod.cli.dump_json", slow_dump)
        out = tmp_path / "report.json"
        assert main(["build", str(INSTANCE_DIR / "theta.json"), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        match = re.fullmatch(r"build: (\d+\.\d{3})s \(write (\d+\.\d{3})s\)\n", err)
        assert match, err
        assert 0.05 <= float(match[2]) <= float(match[1])
        monkeypatch.undo()
        assert main(["build", str(INSTANCE_DIR / "theta.json")]) == 0
        captured = capsys.readouterr()
        assert captured.out == out.read_text(encoding="utf-8")
        assert re.fullmatch(r"build: \d+\.\d{3}s \(write \d+\.\d{3}s\)\n", captured.err)

    def test_identity_component_exit_2(self, tmp_path, capsys):
        obj = {
            "kind": "curve",
            "p": "5",
            "f": "1",
            "graph": {
                "vertices": [{"id": "v0", "genus": "1"}],
                "edges": [],
            },
            "components": {
                "v0": {"type": "matrix", "entries": [["1", "0"], ["0", "1"]]}
            },
        }
        assert main(["build", write_instance(tmp_path, obj)]) == 2
        err = capsys.readouterr().err
        assert "Weil validation failed" in err and "det" in err


class TestLargePrime:
    def _av(self, p: str) -> dict:
        return {"kind": "av", "p": p, "f": "1", "torus_rank": "1",
                "gram": [["1"]], "b_frobenius": []}

    def test_nineteen_digit_p_builds_in_budget(self, tmp_path, capsys):
        t0 = time.perf_counter()
        code = main(["build", write_instance(tmp_path, self._av("1000000000000000003"))])
        assert time.perf_counter() - t0 < 2.0
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["module"]["phi"] == [["1", "0"], ["0", "1000000000000000003"]]

    def test_p_above_primality_bound_exit_2(self, tmp_path, capsys):
        from phinmod.exact_linalg import PRIME_BOUND

        code = main(["build", write_instance(tmp_path, self._av(str(PRIME_BOUND + 2)))])
        assert code == 2
        assert "field 'p'" in capsys.readouterr().err
        assert main(["count", str(PRIME_BOUND + 2), "1", "1"]) == 2
        assert "field 'p'" in capsys.readouterr().err


class TestInputCaps:
    def _av(self, f: str) -> dict:
        return {"kind": "av", "p": "5", "f": f, "torus_rank": "0",
                "gram": [], "b_frobenius": []}

    @pytest.mark.parametrize("f", ["7000", "3000000"])
    def test_large_f_exit_2_naming_f(self, tmp_path, capsys, f):
        t0 = time.perf_counter()
        code = main(["build", write_instance(tmp_path, self._av(f))])
        assert time.perf_counter() - t0 < 2.0
        assert code == 2
        err = capsys.readouterr().err
        assert "field 'f'" in err and "Traceback" not in err

    def test_cap_is_on_the_digits_of_q(self, tmp_path, capsys):
        from phinmod.weil_data import MAX_Q_DIGITS

        # 5^1430 has 1000 digits, 5^1431 has 1001
        assert len(str(5 ** 1430)) == MAX_Q_DIGITS
        assert main(["build", write_instance(tmp_path, self._av("1430"))]) == 0
        capsys.readouterr()
        assert main(["build", write_instance(tmp_path, self._av("1431"))]) == 2
        assert "field 'f'" in capsys.readouterr().err

    def test_in_process_instances_are_capped(self):
        from phinmod.errors import ValidationError
        from phinmod.weil_data import validate_weil

        with pytest.raises(ValidationError, match="'f'"):
            t = tate_instance()
            run_checks(CurveInstance(t.graph, t.components, t.p, f=7000), DEFAULT_POINT_BOUND)
        with pytest.raises(ValidationError, match="'f'"):
            validate_weil([], 5, 7000)


def _elliptic_curve(p="5", f="1", genus="1", a4="1", a6="1") -> dict:
    return {
        "kind": "curve", "p": p, "f": f,
        "graph": {"vertices": [{"id": "v0", "genus": genus}], "edges": []},
        "components": {"v0": {"type": "elliptic", "a4": a4, "a6": a6}},
    }


class TestIntegerFields:
    """String integer fields take ASCII decimal digits only; ``int`` alone
    would also read underscores, surrounding whitespace and other scripts'
    digits."""

    @pytest.mark.parametrize(
        "obj, field",
        [
            (_elliptic_curve(p="1_000_003"), "'p'"),
            (_elliptic_curve(p=" 1000003 "), "'p'"),
            (_elliptic_curve(p="\u0661\u0660\u0660\u0660\u0660\u0660\u0663"), "'p'"),
            (_elliptic_curve(f="1_0"), "'f'"),
            (_elliptic_curve(genus=" 1"), "'graph.vertices[0].genus'"),
            (_elliptic_curve(a4="\u0661"), "'components.v0.a4'"),
            (_elliptic_curve(a6="1\n"), "'components.v0.a6'"),
            ({"kind": "av", "p": "5", "f": "1", "torus_rank": "1_0",
              "gram": [["1"]], "b_frobenius": []}, "'torus_rank'"),
        ],
    )
    def test_exit_2_naming_field(self, tmp_path, capsys, obj, field):
        assert main(["build", write_instance(tmp_path, obj)]) == 2
        err = capsys.readouterr().err
        assert f"field {field}" in err and "Traceback" not in err

    def test_long_value_is_clipped_in_the_message(self, tmp_path, capsys):
        # beyond Python's int/str digit limit, so it is refused
        obj = _elliptic_curve(a4="7" * 5000)
        assert main(["build", write_instance(tmp_path, obj)]) == 2
        err = capsys.readouterr().err
        assert "field 'components.v0.a4'" in err and "(5000 characters)" in err
        assert len(err) < 200

    @pytest.mark.parametrize(
        "value",
        ["k" * 5000, list(range(2000)), {str(k): [k] * 50 for k in range(500)},
         [[[[[[[[["deep"]]]]]]]]], 10 ** 300],
        ids=["long-string", "long-list", "large-object", "nested-list", "large-int"],
    )
    @pytest.mark.parametrize(
        "where, field",
        [("kind", "'kind'"), ("type", "'components.v0.type'"), ("b_type", "'b_frobenius[0].type'")],
    )
    def test_unknown_kind_or_type_is_clipped_in_the_message(self, tmp_path, capsys, value,
                                                            where, field):
        if where == "kind":
            obj = {**_elliptic_curve(), "kind": value}
        elif where == "type":
            obj = _elliptic_curve()
            obj["components"]["v0"] = {"type": value}
        else:
            obj = {"kind": "av", "p": "5", "f": "1", "torus_rank": "1",
                   "gram": [["1"]], "b_frobenius": [{"type": value}]}
        assert main(["build", write_instance(tmp_path, obj)]) == 2
        err = capsys.readouterr().err
        assert f"field {field} has unknown value" in err and "Traceback" not in err
        assert len(err) < 200

    def test_json_integers_and_signs_accepted(self, tmp_path, capsys):
        obj = {"kind": "av", "p": 5, "f": 1, "torus_rank": 1,
               "gram": [["1"]], "b_frobenius": []}
        assert main(["build", write_instance(tmp_path, obj)]) == 0
        assert main(["build", write_instance(tmp_path, _elliptic_curve(p="+7", a4="-3"))]) == 0


BIG = "9" * 4000


class TestLongIntegersClipped:
    """An integer field of 4000 digits that the records refuse is shown
    clipped: one line of stderr, short, naming the field."""

    def _av(self, **fields) -> dict:
        return {"kind": "av", "p": "5", "f": "1", "torus_rank": "1", "gram": [["1"]],
                "b_frobenius": [], **fields}

    @pytest.mark.parametrize(
        "obj, field",
        [
            (_elliptic_curve(p=BIG), "'p'"),
            (_elliptic_curve(p="-" + BIG), "'p'"),
            (_elliptic_curve(f=BIG), "'f'"),
            (_elliptic_curve(f="-" + BIG), "'f'"),
            ({"kind": "av", "p": BIG, "f": "1", "torus_rank": "1", "gram": [["1"]],
              "b_frobenius": []}, "'p'"),
            ({"kind": "av", "p": "-" + BIG, "f": "1", "torus_rank": "1", "gram": [["1"]],
              "b_frobenius": []}, "'p'"),
            ({"kind": "av", "p": "5", "f": "1", "torus_rank": BIG, "gram": [["1"]],
              "b_frobenius": []}, "'torus_rank'"),
        ],
        ids=["curve-p", "curve-negative-p", "curve-f", "curve-negative-f", "av-p",
             "av-negative-p", "torus-rank"],
    )
    def test_exit_2_with_one_short_line(self, tmp_path, capsys, obj, field):
        assert main(["build", write_instance(tmp_path, obj)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200, err
        assert f"field {field} = " in err and "Traceback" not in err


class TestNoSettings:
    """A report depends on its input alone: the commands take no option
    that changes it and read no environment variable."""

    COMMANDS = {
        "build": ["build", str(INSTANCE_DIR / "tate.json")],
        "fuzz": ["fuzz", "--seed", "1", "--count", "2"],
    }

    @pytest.mark.parametrize(
        "command, option",
        [
            ("build", "--timing"),
            ("fuzz", "--max-vertices 3"),
            ("fuzz", "--max-edges 20"),
            ("fuzz", "--max-genus 1"),
            ("fuzz", "--max-prime 7"),
        ],
    )
    def test_removed_option_is_a_usage_error(self, command, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.COMMANDS[command] + option.split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: phinmod")
        assert f"unrecognized arguments: {option}" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("raw", ["1", "x"])
    def test_point_bound_variable_is_ignored(self, tmp_path, monkeypatch, capsys, raw):
        tate = str(INSTANCE_DIR / "tate.json")
        plain, with_env = tmp_path / "plain.json", tmp_path / "env.json"
        assert main(["build", tate, "--out", str(plain)]) == 0
        assert main(["count", "5", "1", "0"]) == 0
        counted = capsys.readouterr().out
        monkeypatch.setenv("PHINMOD_POINT_BOUND", raw)
        assert main(["build", tate, "--out", str(with_env)]) == 0
        assert with_env.read_bytes() == plain.read_bytes()
        # p = 5 lies above a bound of 1, so an honoured variable would exit 2
        assert main(["count", "5", "1", "0"]) == 0
        assert capsys.readouterr().out == counted


class TestGraphShape:
    @pytest.mark.parametrize(
        "graph, field",
        [
            ({"vertices": 3, "edges": []}, "'graph.vertices' must be an array"),
            ({"vertices": [], "edges": 7}, "'graph.edges' must be an array"),
            ({"vertices": ["v0"], "edges": []}, "'graph.vertices[0]' must be an object"),
            ({"vertices": [{"id": "v0", "genus": "0"}], "edges": [5]},
             "'graph.edges[0]' must be an object"),
            (3, "'graph' must be an object"),
            ({"vertices": [{"id": None, "genus": "0"}], "edges": []},
             "'graph.vertices[0].id' must be a string"),
            ({"vertices": [{"id": ["v0"], "genus": "0"}], "edges": []},
             "'graph.vertices[0].id' must be a string"),
            ({"vertices": [{"id": 0, "genus": "0"}], "edges": []},
             "'graph.vertices[0].id' must be a string"),
            ({"vertices": [{"id": "v0", "genus": "0"}],
              "edges": [{"id": {"e": 0}, "tail": "v0", "head": "v0"}]},
             "'graph.edges[0].id' must be a string"),
            ({"vertices": [{"id": "v0", "genus": "0"}],
              "edges": [{"id": "e0", "tail": "v0", "head": "v0"},
                        {"id": "e1", "tail": "v0", "head": "v0"},
                        {"id": "e2", "tail": True, "head": "v0"}]},
             "'graph.edges[2].tail' must be a string"),
            ({"vertices": [{"id": "v0", "genus": "0"}],
              "edges": [{"id": "e0", "tail": "v0", "head": 1.5}]},
             "'graph.edges[0].head' must be a string"),
        ],
    )
    def test_bad_shape_exit_2_naming_field(self, tmp_path, capsys, graph, field):
        obj = {"kind": "curve", "p": "5", "f": "1", "graph": graph, "components": {}}
        assert main(["build", write_instance(tmp_path, obj)]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err


LONG_ID = "x" * 5000


def _genus0_curve(vids, edges, components=None) -> dict:
    return {
        "kind": "curve", "p": "5", "f": "1",
        "graph": {"vertices": [{"id": v, "genus": "0"} for v in vids],
                  "edges": [{"id": e, "tail": t, "head": h} for e, t, h in edges]},
        "components": ({v: {"type": "genus0"} for v in vids} if components is None
                       else components),
    }


def _path(n) -> tuple:
    vids = [f"v{i}" for i in range(n)]
    return vids, [(f"e{i}", vids[i], vids[i + 1]) for i in range(n - 1)]


class TestLongIdsClipped:
    """A message shows an id or key by its first 20 characters and its
    length, and a list of ids by its length and its first three."""

    @pytest.mark.parametrize(
        "obj, names",
        [
            (_genus0_curve([LONG_ID], [], {LONG_ID: {"type": "nope"}}),
             ["field 'components.xxxxxxxxxxxxxxxxxxxx... (5000 characters).type'"]),
            (_genus0_curve(["v0"], [(LONG_ID, "v0", "v9")]),
             ["edge 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)", "missing vertex"]),
            (_genus0_curve(*_path(2000), components={}),
             ["no component source for vertices (2000): 'v0', 'v1', 'v10' and 1997 more"]),
            (_genus0_curve(["v0"], [], {"v0": {"type": "genus0"},
                                       **{f"u{i}": {"type": "genus0"} for i in range(2000)}}),
             ["sources for unknown vertices (2000): 'u0', 'u1', 'u10' and 1997 more"]),
            (_genus0_curve(["v0", LONG_ID], [("e0", "v0", LONG_ID)], {"v0": {"type": "genus0"}}),
             ["no component source for vertices (1): 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)"]),
            ({**_genus0_curve([LONG_ID], []),
              "graph": {"vertices": [{"id": LONG_ID, "genus": "1"}], "edges": []}},
             ["vertex 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters) has genus 1"]),
        ],
        ids=["component-key", "edge-id", "missing-sources", "unknown-vertices",
             "missing-long-id", "genus-mismatch"],
    )
    def test_exit_2_with_a_short_message(self, tmp_path, capsys, obj, names):
        assert main(["build", write_instance(tmp_path, obj)]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        assert len(err) < 200 and "Traceback" not in err


class TestArchimedeanRejection:
    def test_repeated_real_block_exit_2(self, tmp_path, capsys):
        # diag(C, C), C = [[0, -5], [1, 7]]: eigenvalues (7 +/- sqrt(29))/2
        # are real, multiply to 5, and are not of absolute value sqrt(5)
        entries = [["0", "-5", "0", "0"], ["1", "7", "0", "0"],
                   ["0", "0", "0", "-5"], ["0", "0", "1", "7"]]
        obj = {"kind": "av", "p": "5", "f": "1", "torus_rank": "0", "gram": [],
               "b_frobenius": [{"type": "matrix", "entries": entries}]}
        assert main(["build", write_instance(tmp_path, obj)]) == 2
        assert "archimedean" in capsys.readouterr().err


class TestWeilBlockCaps:
    def _av(self, entries) -> dict:
        return {"kind": "av", "p": "5", "f": "1", "torus_rank": "0", "gram": [],
                "b_frobenius": [{"type": "matrix", "entries": entries}]}

    def _build(self, tmp_path, capsys, obj) -> str:
        t0 = time.perf_counter()
        code = main(["build", write_instance(tmp_path, obj)])
        assert time.perf_counter() - t0 < 2.0
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    def test_large_zero_block_exit_2(self, tmp_path, capsys):
        from phinmod.weil_data import MAX_WEIL_SIZE

        err = self._build(tmp_path, capsys, self._av([["0"] * 300 for _ in range(300)]))
        assert "field 'b_frobenius[0].entries' has 300 rows" in err
        assert f"at most {MAX_WEIL_SIZE}" in err

    def test_large_curve_component_exit_2(self, tmp_path, capsys):
        obj = {
            "kind": "curve", "p": "5", "f": "1",
            "graph": {"vertices": [{"id": "v0", "genus": "150"}], "edges": []},
            "components": {"v0": {"type": "matrix", "entries": [["0"] * 300] * 300}},
        }
        err = self._build(tmp_path, capsys, obj)
        assert "field 'components.v0.entries' has 300 rows" in err

    @pytest.mark.parametrize("entry", ["9" * 100_000, "9" * 4001, "1e999999999", "1.5"])
    def test_oversized_or_non_decimal_entry_exit_2(self, tmp_path, capsys, entry):
        entries = [["0"] * 4 for _ in range(4)]
        entries[1][2] = entry
        err = self._build(tmp_path, capsys, self._av(entries))
        assert "field 'b_frobenius[0].entries' has a bad entry" in err
        assert "at most 4000 digits" in err

    def test_exponent_gram_entry_exit_2(self, tmp_path, capsys):
        # an exponent is not a decimal integer, however small its value
        obj = {"kind": "av", "p": "5", "f": "1", "torus_rank": "1",
               "gram": [["1e5000"]], "b_frobenius": []}
        assert "field 'gram' has a bad entry" in self._build(tmp_path, capsys, obj)

    @pytest.mark.parametrize(
        "data",
        [b'{"kind": "av", "p": ' + b"7" * 5000 + b"}", b'{"kind": "\xff"}',
         b"[" * 100_000 + b"]" * 100_000],
        ids=["over-long integer", "bad UTF-8", "deep nesting"],
    )
    def test_undecodable_json_exit_2(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert main(["build", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_largest_block_and_entry_accepted(self, tmp_path, capsys):
        from phinmod.weil_data import MAX_ENTRY_DIGITS, MAX_WEIL_SIZE

        # at the caps, a block passes them and is refused later, at det
        entries = [["0", "-" + "9" * MAX_ENTRY_DIGITS], ["1", "0"]]
        err = self._build(tmp_path, capsys, self._av(entries))
        assert "det" in err
        zeros = [["0"] * MAX_WEIL_SIZE for _ in range(MAX_WEIL_SIZE)]
        assert "det" in self._build(tmp_path, capsys, self._av(zeros))

    def test_det_past_the_int_str_limit_exit_2_naming_det(self, tmp_path, capsys):
        # det = (10^4000 - 1)^2 has 8000 digits, more than Python writes
        big = "9" * 4000
        err = self._build(tmp_path, capsys, self._av([[big, "0"], ["0", big]]))
        assert "det = <8000-digit integer> != q^g = 5" in err

    def test_trace_square_past_the_int_str_limit_exit_2_naming_archimedean(self, tmp_path, capsys):
        err = self._build(tmp_path, capsys, self._av([["0", "-5"], ["1", "9" * 4000]]))
        assert "archimedean check, trace^2 = <8000-digit integer> > 4q = 20" in err


@pytest.mark.parametrize("n, text", [
    (0, "0"),
    (10 ** 60 - 1, "9" * 60),
    (-(10 ** 60 - 1), "-" + "9" * 60),
    (10 ** 60, "<61-digit integer>"),
    (-(10 ** 60), "-<61-digit integer>"),
    (2 ** 20000, "<6021-digit integer>"),
    (10 ** 20000 - 1, "<20000-digit integer>"),
    (10 ** 20000, "<20001-digit integer>"),
], ids=lambda v: v if isinstance(v, str) else f"{v.bit_length()} bits")
def test_weil_messages_show_long_integers_by_digit_count(n, text):
    from phinmod.weil_data import _shown

    assert _shown(n) == text


def test_import_pulls_in_no_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import phinmod; "
        "print('numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def test_import_pulls_in_no_dataclasses():
    """The value types are plain classes, so ``import phinmod`` loads neither
    ``dataclasses`` nor the modules it imports to generate code."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import phinmod; "
        "print(sorted({'dataclasses', 'inspect', 'dis', 'ast', 'tokenize'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_import_pulls_in_no_fractions_or_typing():
    """Slopes are (num, den) pairs of ints and annotations come from
    ``collections.abc``, so ``import phinmod`` loads none of ``fractions``
    (nor the ``decimal`` and ``numbers`` it imports) or ``typing``.  ``-S``
    keeps ``site``, whose ``.pth`` files may import ``typing`` themselves,
    out of the interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import phinmod; "
        "print(sorted({'fractions', 'decimal', 'numbers', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


class TestCountCommand:
    def test_spot_values(self, capsys):
        assert main(["count", "5", "1", "0"]) == 0
        assert capsys.readouterr().out.strip() == "N=4 a=2"
        assert main(["count", "7", "-1", "0"]) == 0
        assert capsys.readouterr().out.strip() == "N=8 a=0"

    @pytest.mark.parametrize("a4, a6", [("1", "1"), ("0", "7"), ("-3", "2024"), ("8191", "0")])
    def test_shanks_mestre_count_matches_euler(self, a4, a6, capsys):
        # 9973 is the largest prime under the point bound: the command
        # counts it by baby-step giant-step, not by the square table
        p = 9973
        assert phinmod._backend.MESTRE_BOUND < p <= DEFAULT_POINT_BOUND
        n = count_points_euler(p, int(a4) % p, int(a6) % p)
        assert main(["count", str(p), a4, a6]) == 0
        assert capsys.readouterr().out.strip() == f"N={n} a={p + 1 - n}"

    def test_singular_curve_exit_2(self, capsys):
        assert main(["count", "5", "0", "0"]) == 2
        assert "singular" in capsys.readouterr().err

    def test_non_prime_p_exit_2_naming_p(self, capsys):
        assert main(["count", "4", "1", "1"]) == 2
        err = capsys.readouterr().err
        assert "field 'p' = 4 is not an odd prime" in err and "Traceback" not in err

    def test_elliptic_component_at_non_prime_p_names_p(self, tmp_path, capsys):
        obj = instance_to_json(tate_instance())
        obj["p"] = "4"
        obj["graph"]["vertices"][0]["genus"] = "1"
        obj["components"]["v0"] = {"type": "elliptic", "a4": "1", "a6": "1"}
        assert main(["build", write_instance(tmp_path, obj)]) == 2
        err = capsys.readouterr().err
        assert "field 'p' = 4 is not an odd prime" in err and "Traceback" not in err


class TestFuzzCommand:
    def test_small_run_passes(self, capsys):
        assert main(["fuzz", "--seed", "1", "--count", "10"]) == 0
        assert "10/10" in capsys.readouterr().out

    def test_zero_count(self, capsys):
        assert main(["fuzz", "--seed", "1", "--count", "0"]) == 0
        assert "0/0" in capsys.readouterr().out

    def test_failure_names_seed_instance_and_checks(self, tmp_path, capsys, monkeypatch):
        def broken_relations(m):
            return RelationReport(True, False, True, True)

        monkeypatch.setattr("phinmod.cli.verify_relations", broken_relations)
        code = main(["fuzz", "--seed", "4", "--count", "2", "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        for idx, inst in enumerate(instance_stream(4, 2)):
            assert err[idx].startswith(
                f"seed 4 instance {idx} failed relations.n_phi_commutation;"
            )
            dump = tmp_path / f"fuzz_failure_{idx:04d}.json"
            assert str(dump) in err[idx]
            parsed = instance_from_json(json.loads(dump.read_text(encoding="utf-8")))
            assert instance_to_json(parsed) == instance_to_json(inst)

    def test_failure_dump_is_the_instance_echo(self, tmp_path, capsys, monkeypatch):
        self._fail_every_instance(monkeypatch)
        assert main(["fuzz", "--seed", "7", "--count", "6", "--out-dir", str(tmp_path)]) == 1
        for idx, inst in enumerate(instance_stream(7, 6)):
            text = (tmp_path / f"fuzz_failure_{idx:04d}.json").read_text(encoding="utf-8")
            assert text == json.dumps(instance_to_json(inst), indent=2, sort_keys=True) + "\n"
            assert instance_from_json(json.loads(text)) == inst

    def _fail_every_instance(self, monkeypatch):
        monkeypatch.setattr("phinmod.cli.failed_checks", lambda report: ["relations.n_squared_zero"])

    def test_missing_out_dir_exit_2(self, tmp_path, capsys, monkeypatch):
        self._fail_every_instance(monkeypatch)
        missing = str(tmp_path / "missing")
        assert main(["fuzz", "--seed", "4", "--count", "2", "--out-dir", missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --out-dir = {missing}:")
        assert "Traceback" not in captured.err

    def test_unwritable_dump_exit_2(self, tmp_path, capsys, monkeypatch):
        self._fail_every_instance(monkeypatch)
        (tmp_path / "fuzz_failure_0000.json").mkdir()  # open() for writing fails
        assert main(["fuzz", "--seed", "4", "--count", "2", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--out-dir" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--count", "-1"),
        ],
    )
    def test_bad_bound_exit_2(self, option, value, capsys):
        assert main(["fuzz", "--seed", "1", option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {option} = {value}:")
        assert "Traceback" not in captured.err

    def test_seed_reproducibility(self):
        first = [instance_to_json(i) for i in instance_stream(3, 12)]
        second = [instance_to_json(i) for i in instance_stream(3, 12)]
        assert first == second


class TestReportPassLogic:
    """failed_checks and report_all_pass read the report record."""

    def _report(self, relations=(True,) * 4, polygon_checks=(True,) * 3, duality=True,
                agreement=True) -> Report:
        report = run_checks(tate_instance(), DEFAULT_POINT_BOUND)
        numbers = [getattr(report.polygons, name) for name in PolygonReport._fields[:4]]
        polygons = PolygonReport(*numbers, *polygon_checks)
        return Report(report.instance, report.module, RelationReport(*relations), polygons,
                      duality, agreement)

    def test_all_pass(self):
        report = self._report()
        assert report_all_pass(report) and failed_checks(report) == []
        av = self._report(agreement=None)  # an abelian variety has no agreement check
        assert report_all_pass(av) and failed_checks(av) == []

    @pytest.mark.parametrize(
        "verdicts, failed",
        [
            ({"relations": (True, False, True, True)}, ["relations.n_phi_commutation"]),
            ({"agreement": False}, ["curve_jacobian_agreement"]),
            ({"duality": False}, ["monodromy_duality"]),
            ({"polygon_checks": (True, False, True)}, ["polygons.newton_on_or_above_hodge"]),
            (
                {"relations": (False, True, True, False), "polygon_checks": (False, True, False),
                 "duality": False, "agreement": False},
                ["curve_jacobian_agreement", "monodromy_duality", "polygons.endpoints_equal",
                 "polygons.newton_symmetric", "relations.n_rank_is_torus_rank",
                 "relations.n_squared_zero"],
            ),
        ],
    )
    def test_failed_checks_in_sorted_order(self, verdicts, failed):
        report = self._report(**verdicts)
        assert failed_checks(report) == failed
        assert not report_all_pass(report)
        # the written verdicts name the same checks
        checks = json.loads(dump_json(report))["checks"]
        written = [name for name, v in checks.items() if v == "fail"]
        written += [f"{name}.{k}" for name in ("polygons", "relations")
                    for k, v in checks[name].items() if v == "fail"]
        assert written == failed


def count_calls(monkeypatch, fn, calls=None) -> list:
    """Wrap ``fn`` in every phinmod module that holds a reference to it and
    return the list its calls are appended to, ``calls`` if it is given."""
    calls = [] if calls is None else calls

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "phinmod" or name.startswith("phinmod."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def count_eliminations(monkeypatch) -> list:
    """The one list that the calls of both elimination kernels, the
    general and the symmetric one, are appended to."""
    calls = count_calls(monkeypatch, phinmod._backend.bareiss)
    return count_calls(monkeypatch, phinmod._backend.bareiss_symmetric, calls)


def dense_weil_rows(traces, q) -> list:
    """The companion matrix of prod (T^2 - a T + q) over ``traces``,
    conjugated by I + e_i0 for every row i > 0, which keeps it one diagonal
    block, as decimal strings."""
    chi = [1]
    for a in traces:
        chi = [q * x - a * y + z for x, y, z in zip(chi + [0, 0], [0] + chi + [0], [0, 0] + chi)]
    n = len(chi) - 1
    m = [[int(j == i - 1) for j in range(n - 1)] + [-chi[i]] for i in range(n)]
    return [[str(x) for x in r] for r in conjugated(m, [(i, 0, 1) for i in range(1, n)])]


class TestOncePerRequest:
    def test_curve_counts_each_component_once(self, monkeypatch):
        g = DualGraph.build(
            [("v0", 1), ("v1", 0), ("v2", 1)],
            [("e0", "v0", "v1"), ("e1", "v1", "v2"), ("e2", "v2", "v0"), ("e3", "v1", "v1")],
        )
        inst = CurveInstance(
            graph=g,
            components={
                "v0": EllipticCurveSpec(7, 1, 3),
                "v1": None,
                "v2": EllipticCurveSpec(7, 3, 1),
            },
            p=7,
        )
        counts = count_calls(monkeypatch, phinmod._backend.count_points)
        relations = count_calls(monkeypatch, phinmod.phin_module.verify_relations)
        eliminations = count_eliminations(monkeypatch)
        validations = count_calls(monkeypatch, phinmod.weil_data.validate_weil)
        char_polys = count_calls(monkeypatch, phinmod.exact_linalg.char_poly)
        report = json.loads(dump_json(run_checks(inst, DEFAULT_POINT_BOUND)))
        assert report["checks"]["curve_jacobian_agreement"] == "pass"
        assert len(counts) == 2
        assert len(relations) == 1
        # the elliptic blocks come from their traces and the genus-0 one is
        # empty: none goes through the general Weil gate
        assert validations == [] and char_polys == []
        # the Gram matrix once (positive definiteness, rank N and det all
        # read it); the spanning-tree count eliminates its own sparse
        # cofactor and shares no kernel with it
        assert [rows for rows, in eliminations] == [monodromy_gram(g).to_rows()]

    def test_matrix_components_validated_once_each(self, monkeypatch):
        g = DualGraph.build(
            [("v0", 1), ("v1", 0), ("v2", 1), ("v3", 2)],
            [("e0", "v0", "v1"), ("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v0")],
        )
        block = QMatrix.from_rows([[0, -5], [1, 2]])
        inst = CurveInstance(
            graph=g,
            components={
                "v0": EllipticCurveSpec(5, 1, 0),
                "v1": None,
                "v2": block,
                "v3": QMatrix.from_rows(
                    [[0, -5, 0, 0], [1, 2, 0, 0], [0, 0, 0, -5], [0, 0, 1, 0]]
                ),
            },
            p=5,
        )
        validations = count_calls(monkeypatch, phinmod.weil_data.validate_weil)
        certificates = count_calls(monkeypatch, phinmod.weil_data._certify)
        char_polys = count_calls(monkeypatch, phinmod._backend.charpoly_int)
        report = json.loads(dump_json(run_checks(inst, DEFAULT_POINT_BOUND)))
        assert report["checks"]["curve_jacobian_agreement"] == "pass"
        assert [args[0] for args in validations] == [block, inst.components["v3"]]
        # one certificate per diagonal block: v3 has two
        rows = [[list(r) for r in args[0]] for args in certificates]
        assert rows == [block.to_rows(), block.to_rows(), [[0, -5], [1, 0]]]
        # every block is 2 x 2, so its chi is read off its trace and det
        assert char_polys == []

    def test_one_spanning_tree_per_curve(self, monkeypatch):
        trees = count_calls(monkeypatch, phinmod.graph_core._spanning_tree)
        texts = [path.read_text(encoding="utf-8") for path in sorted(INSTANCE_DIR.glob("*.json"))]
        texts += [dump_json(inst) for inst in instance_stream(7, 20)]
        curves = 0
        for text in texts:
            obj = json.loads(text)
            trees.clear()
            run_checks(instance_from_json(obj), DEFAULT_POINT_BOUND)
            # grown by the connectivity check, read again by the cycles
            assert len(trees) == (obj["kind"] == "curve")
            curves += obj["kind"] == "curve"
        assert curves >= 20

    def test_av_validates_each_block_once(self, monkeypatch):
        obj = {
            "kind": "av",
            "p": "5",
            "f": "1",
            "torus_rank": "1",
            "gram": [["2"]],
            "b_frobenius": [
                {"type": "matrix", "entries": [["0", "-5"], ["1", "2"]]},
                {"type": "matrix", "entries": [["0", "-5"], ["1", "0"]]},
            ],
        }
        # a dense 4 x 4 block is certified from its minors and the genus-2
        # closed form, a 6 x 6 one by Berkowitz and a Sturm sequence
        obj["b_frobenius"].append({"type": "matrix", "entries": dense_weil_rows((1, -2), 5)})
        validations = count_calls(monkeypatch, phinmod.weil_data.validate_weil)
        relations = count_calls(monkeypatch, phinmod.phin_module.verify_relations)
        eliminations = count_eliminations(monkeypatch)
        charpolys = count_calls(monkeypatch, phinmod._backend.charpoly_int)
        sturms = count_calls(monkeypatch, phinmod.weil_data._sturm_sequence)
        run_checks(instance_from_json(obj), DEFAULT_POINT_BOUND)
        assert len(validations) == 3
        assert len(relations) == 1
        assert eliminations == [([[2]],)]
        assert charpolys == [] and sturms == []
        obj["b_frobenius"].append({"type": "matrix", "entries": dense_weil_rows((1, -2, 3), 5)})
        run_checks(instance_from_json(obj), DEFAULT_POINT_BOUND)
        assert len(validations) == 3 + 4
        assert [len(rows) for (rows,) in charpolys] == [6]
        assert sturms


# sha256 of the report of the 400-loop bouquet below, as written before its
# Gram elimination skipped zero-multiplier rows
BOUQUET_REPORT_SHA256 = "cfcb8deb935d477813633125ae4fe30f89180a4f564008476d4e43800908011d"


def _tree_plus_edges(vertices: int, extra: int, seed: int) -> dict:
    """A random recursive tree on ``vertices`` genus-0 vertices plus
    ``extra`` random edges, loops and parallels allowed."""
    rng = random.Random(seed)
    vids = [f"v{i}" for i in range(vertices)]
    links = [(vids[rng.randrange(i)], vids[i]) for i in range(1, vertices)]
    links += [(rng.choice(vids), rng.choice(vids)) for _ in range(extra)]
    return _genus0_curve(vids, [(f"e{j}", t, h) for j, (t, h) in enumerate(links)])


class TestLargeGraphBudget:
    @pytest.mark.parametrize("vertices, budget", [(500, 0.5), (2000, 1.0)])
    def test_tree_plus_100_edges_in_budget(self, vertices, budget):
        # b1 = 100: the Gram matrix is 100 x 100, and the spanning trees are
        # counted by sparse elimination; the dense count took 9.6 s at
        # V = 500 and over 300 s at V = 2000
        obj = _tree_plus_edges(vertices, 100, seed=vertices)
        t0 = time.perf_counter()
        report = run_checks(instance_from_json(obj), DEFAULT_POINT_BOUND)
        assert time.perf_counter() - t0 < budget
        assert json.loads(dump_json(report))["checks"]["curve_jacobian_agreement"] == "pass"

    def test_av_with_tridiagonal_gram_in_budget(self):
        # torus rank 400 and no Weil block: d = 800, and the Gram matrix is
        # the 400 x 400 tridiagonal 2, -1.  The elimination that rescaled
        # every row below each pivot took 1.65-2.20 s of run_checks here;
        # the symmetric pass visits only the nonzero entries above the
        # diagonal and their fill
        n = 400
        gram = [["2" if i == j else "-1" if abs(i - j) == 1 else "0" for j in range(n)]
                for i in range(n)]
        obj = {"kind": "av", "p": "5", "f": "1", "torus_rank": str(n), "gram": gram,
               "b_frobenius": []}
        t0 = time.perf_counter()
        report = run_checks(instance_from_json(obj), DEFAULT_POINT_BOUND)
        assert time.perf_counter() - t0 < 0.5
        assert report.module.dimension == 2 * n
        assert failed_checks(report) == []

    def test_bound_beyond_the_largest_prime_exit_2(self, tmp_path, capsys):
        # K_{2,4420}: the product of the degrees off the root hub is
        # 4420 * 2^4420, above the largest listed prime 2^4423 - 1
        middles = [f"m{j}" for j in range(4420)]
        edges = [(f"e{h}_{j}", hub, m) for h, hub in enumerate(("a", "b"))
                 for j, m in enumerate(middles)]
        obj = _genus0_curve(["a", "b"] + middles, edges)
        t0 = time.perf_counter()
        assert main(["build", write_instance(tmp_path, obj)]) == 2
        assert time.perf_counter() - t0 < 2
        err = capsys.readouterr().err
        assert "graph has a spanning-tree bound" in err and "Traceback" not in err

    def test_bouquet_build_in_budget(self, tmp_path):
        # one genus-0 vertex with 400 loops: b1 = 400, the Gram matrix is
        # the 400 x 400 identity and the report holds d = 800 matrices.
        # The budget is on one in-process parse and build; the 18.8 MB
        # report is written once, for its digest.  On a shared 2-vCPU host
        # the build takes 0.1-0.3 s, and 2.4 s when the elimination updates
        # every row of the identity, which is what the budget catches.
        obj = {
            "format": "phinmod-instance-v1",
            "kind": "curve",
            "p": "5",
            "f": "1",
            "graph": {
                "vertices": [{"id": "v0", "genus": "0"}],
                "edges": [{"id": f"e{j}", "tail": "v0", "head": "v0"} for j in range(400)],
            },
            "components": {"v0": {"type": "genus0"}},
        }
        t0 = time.perf_counter()
        run_checks(instance_from_json(obj), DEFAULT_POINT_BOUND)
        assert time.perf_counter() - t0 < 0.5
        out = tmp_path / "report.json"
        assert main(["build", write_instance(tmp_path, obj), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == BOUQUET_REPORT_SHA256


class TestInstanceSerialization:
    def test_curve_round_trip(self):
        for inst in (tate_instance(), theta_instance()):
            parsed = instance_from_json(instance_to_json(inst))
            assert parsed.graph == inst.graph
            assert parsed.p == inst.p and parsed.f == inst.f
            assert build_from_curve(parsed) == build_from_curve(inst)

    def test_fuzz_instances_round_trip(self):
        for inst in instance_stream(8, 10):
            parsed = instance_from_json(instance_to_json(inst))
            assert build_from_curve(parsed) == build_from_curve(inst)


class TestFormatField:
    """An instance may omit ``format``; one that gives it must give
    ``phinmod-instance-v1``."""

    @pytest.mark.parametrize("value", ["nope", "phinmod-instance-v2", "", 1, None, ["phinmod-instance-v1"]])
    def test_other_format_exit_2_naming_it(self, tmp_path, capsys, value):
        obj = json.loads((INSTANCE_DIR / "tate.json").read_text(encoding="utf-8"))
        obj["format"] = value
        assert main(["build", write_instance(tmp_path, obj)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "field 'format'" in err and "Traceback" not in err

    def test_missing_format_accepted(self, tmp_path, capsys):
        obj = json.loads((INSTANCE_DIR / "tate.json").read_text(encoding="utf-8"))
        del obj["format"]
        assert main(["build", write_instance(tmp_path, obj)]) == 0
        assert json.loads(capsys.readouterr().out)["instance"]["format"] == "phinmod-instance-v1"
