"""Pinned report bytes: the sha256 of every report the package writes for
the example instances and for two fixed fuzz streams.

``golden_reports.json`` holds the digests of

* ``phinmod build <file>`` for every ``instances/*.json``, and
* ``dump_json(run_checks(inst, DEFAULT_POINT_BOUND))`` for the first 40
  instances of ``fuzz.instance_stream`` at seeds 7 and 11 (default bounds).

A change that alters any report byte fails here.  After an intended change
of the report format, rewrite the file with
``PYTHONPATH=src python tests/test_golden_reports.py --record``.
"""

import hashlib
import json
import sys
from pathlib import Path

from phinmod.cli import main, run_checks
from phinmod.fuzz import instance_stream
from phinmod.io_formats import dump_json
from phinmod.weil_data import DEFAULT_POINT_BOUND

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_reports.json"
INSTANCE_DIR = HERE.parent / "instances"
FUZZ_SEEDS = (7, 11)
FUZZ_COUNT = 40


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def instance_digests(tmp_dir: Path) -> dict:
    """sha256 of the ``phinmod build`` output file of each instance."""
    out = {}
    for path in sorted(INSTANCE_DIR.glob("*.json")):
        target = tmp_dir / f"{path.stem}.report.json"
        code = main(["build", str(path), "--out", str(target)])
        out[path.name] = {"exit": code, "sha256": _sha256(target.read_bytes())}
    return out


def fuzz_digests(seed: int) -> list:
    return [
        _sha256(dump_json(run_checks(inst, DEFAULT_POINT_BOUND)).encode("utf-8"))
        for inst in instance_stream(seed, FUZZ_COUNT)
    ]


def current_digests(tmp_dir: Path) -> dict:
    return {
        "instances": instance_digests(tmp_dir),
        "fuzz": {str(seed): fuzz_digests(seed) for seed in FUZZ_SEEDS},
    }


def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_instance_reports_match_golden(tmp_path, capsys):
    got = instance_digests(tmp_path)
    capsys.readouterr()
    assert got == golden()["instances"]


def test_fuzz_reports_match_golden():
    expected = golden()["fuzz"]
    assert sorted(expected) == sorted(str(s) for s in FUZZ_SEEDS)
    for seed in FUZZ_SEEDS:
        got = fuzz_digests(seed)
        want = expected[str(seed)]
        assert len(want) == FUZZ_COUNT
        mismatched = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
        assert not mismatched, f"seed {seed}: reports {mismatched} changed"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_reports.py --record")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = current_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
