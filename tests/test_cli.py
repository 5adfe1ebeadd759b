import hashlib
import json
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
from phinmod.graph_core import DualGraph, monodromy_gram
from phinmod.io_formats import (
    dump_json,
    instance_from_json,
    instance_to_json,
    module_from_report,
)
from phinmod.phin_module import RelationReport
from phinmod.weil_data import DEFAULT_POINT_BOUND, EllipticCurveSpec

from conftest import INSTANCE_DIR, tate_instance, theta_instance


def write_instance(tmp_path: Path, obj, name="inst.json") -> str:
    path = tmp_path / name
    path.write_text(dump_json(obj), encoding="utf-8")
    return str(path)


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
        from dataclasses import replace

        from phinmod.errors import ValidationError
        from phinmod.weil_data import validate_weil

        with pytest.raises(ValidationError, match="'f'"):
            run_checks(replace(tate_instance(), f=7000), DEFAULT_POINT_BOUND)
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

    def test_json_integers_and_signs_accepted(self, tmp_path, capsys):
        obj = {"kind": "av", "p": 5, "f": 1, "torus_rank": 1,
               "gram": [["1"]], "b_frobenius": []}
        assert main(["build", write_instance(tmp_path, obj)]) == 0
        assert main(["build", write_instance(tmp_path, _elliptic_curve(p="+7", a4="-3"))]) == 0


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
        # Fraction reads "1e5000" as a 5001-digit integer, which the report
        # could not write back
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


class TestCountCommand:
    def test_spot_values(self, capsys):
        assert main(["count", "5", "1", "0"]) == 0
        assert capsys.readouterr().out.strip() == "N=4 a=2"
        assert main(["count", "7", "-1", "0"]) == 0
        assert capsys.readouterr().out.strip() == "N=8 a=0"

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
        from phinmod.fuzz import instance_stream

        for idx, inst in enumerate(instance_stream(4, 2)):
            assert err[idx].startswith(
                f"seed 4 instance {idx} failed relations.n_phi_commutation;"
            )
            dump = tmp_path / f"fuzz_failure_{idx:04d}.json"
            assert str(dump) in err[idx]
            parsed = instance_from_json(json.loads(dump.read_text(encoding="utf-8")))
            assert instance_to_json(parsed) == instance_to_json(inst)

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
        from phinmod.fuzz import instance_stream

        first = [instance_to_json(i) for i in instance_stream(3, 12)]
        second = [instance_to_json(i) for i in instance_stream(3, 12)]
        assert first == second


class TestReportPassLogic:
    def test_failed_check_detected(self, capsys):
        from phinmod.io_formats import failed_checks, report_all_pass

        assert main(["build", str(INSTANCE_DIR / "banana.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report_all_pass(report)
        report["checks"]["relations"]["n_phi_commutation"] = "fail"
        assert not report_all_pass(report)
        assert failed_checks(report) == ["relations.n_phi_commutation"]
        report["checks"]["relations"]["n_phi_commutation"] = "pass"
        report["checks"]["curve_jacobian_agreement"] = "fail"
        assert not report_all_pass(report)
        assert failed_checks(report) == ["curve_jacobian_agreement"]


def count_calls(monkeypatch, fn) -> list:
    """Wrap ``fn`` in every phinmod module that holds a reference to it and
    return the list its calls are appended to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "phinmod" or name.startswith("phinmod."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


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
        eliminations = count_calls(monkeypatch, phinmod._backend.bareiss)
        validations = count_calls(monkeypatch, phinmod.weil_data.validate_weil)
        char_polys = count_calls(monkeypatch, phinmod.exact_linalg.char_poly)
        report = run_checks(inst, DEFAULT_POINT_BOUND)
        assert report["checks"]["curve_jacobian_agreement"] == "pass"
        assert len(counts) == 2
        assert len(relations) == 1
        # the elliptic blocks come from their traces and the genus-0 one is
        # empty: none goes through the general Weil gate
        assert validations == [] and char_polys == []
        # the Gram matrix once (positive definiteness, rank N and det all
        # read it) and the Laplacian cofactor of the spanning-tree count
        gram = monodromy_gram(g).to_rows()
        laplacian_cofactor = [[2, -1], [-1, 2]]
        assert sorted(rows for rows, in eliminations) == sorted([gram, laplacian_cofactor])

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
        char_polys = count_calls(monkeypatch, phinmod.exact_linalg.char_poly)
        report = run_checks(inst, DEFAULT_POINT_BOUND)
        assert report["checks"]["curve_jacobian_agreement"] == "pass"
        assert [args[0] for args in validations] == [block, inst.components["v3"]]
        assert len(char_polys) == 2

    def test_one_spanning_tree_per_curve(self, monkeypatch):
        from phinmod.fuzz import instance_stream

        trees = count_calls(monkeypatch, phinmod.graph_core._spanning_tree)
        texts = [path.read_text(encoding="utf-8") for path in sorted(INSTANCE_DIR.glob("*.json"))]
        texts += [dump_json(instance_to_json(inst)) for inst in instance_stream(7, 20)]
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
        validations = count_calls(monkeypatch, phinmod.weil_data.validate_weil)
        relations = count_calls(monkeypatch, phinmod.phin_module.verify_relations)
        eliminations = count_calls(monkeypatch, phinmod._backend.bareiss)
        run_checks(instance_from_json(obj), DEFAULT_POINT_BOUND)
        assert len(validations) == 2
        assert len(relations) == 1
        assert eliminations == [([[2]],)]


# sha256 of the report of the 400-loop bouquet below, as written before its
# Gram elimination skipped zero-multiplier rows
BOUQUET_REPORT_SHA256 = "cfcb8deb935d477813633125ae4fe30f89180a4f564008476d4e43800908011d"


class TestLargeGraphBudget:
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
        from phinmod.fuzz import instance_stream

        for inst in instance_stream(8, 10):
            parsed = instance_from_json(instance_to_json(inst))
            assert build_from_curve(parsed) == build_from_curve(inst)
