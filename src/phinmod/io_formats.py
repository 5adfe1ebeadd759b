"""Instance and report serialization.

One JSON dialect for both: every number is a decimal string (rationals as
"a/b" in lowest terms), so consumers never face 64-bit overflow and
round-trips are bit-exact.  A matrix entry that is not such a string, or
has more than MAX_ENTRY_DIGITS digits, is refused before it is parsed.  A
row of integers is read in one pass: one pattern match per entry, then one
``map(int, row)``; only other rows are read entry by entry.  A matrix
written into a report is converted to text once
(:attr:`QMatrix.entry_strings`), however many fields show it.

The dense d x d ``phi`` and ``n`` of a report, and the ``b_frobenius``
entries of an abelian-variety echo, are :class:`BlockRows`: one run of
cells per row, taken from the blocks (the scalars, the diagonal blocks of
the Weil matrix, whose sizes are the degrees of its factors, and N's one
block), "0" elsewhere.  Only the cells of runs are converted to text; a
Weil-matrix row with a nonzero entry outside its block has its whole row
as its run, so every matrix is written with exactly its entries.  A
``BlockRows`` reads as its list of rows, and :func:`matrix_from_strings`
takes one, so a report can be read back in the process that built it.

Reports are emitted with sorted keys and fixed indentation, making equal
runs byte-identical.  :func:`dump_json` writes exactly the bytes of
``json.dumps(obj, indent=2, sort_keys=True, default=list) + "\\n"``, for
``str`` keys only, without running the pure-Python encoder that ``indent``
selects: a small recursive writer quotes each string with the C
``encode_basestring_ascii``.  A matrix, a list whose items are all
non-empty lists or tuples of strings such as the ``gram``, is written
whole: one escape check over all its entries, one join per row and one
outer join.  A ``BlockRows`` is written from its runs: one escape check
over the run cells, the text of a zero row made once, and each other row
as a slice of one zero-run text, its cells joined once and the matching
slice.  A string value in a dict is quoted inline.  Any other list, or a
matrix with an entry that needs escaping, is written with one recursive
call per item.  ``tests/test_report_writer.py`` guards the equality.
"""

import json
import re
from collections.abc import Mapping, Sequence
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any

from .builders import CurveInstance, UniformizationData, resolve_component
from .errors import SchemaError, clipped, clipped_key
from .exact_linalg import QMatrix, char_poly, parse_rational, rational_str
from .graph_core import DualGraph
from .phin_module import PhiNModule, PolygonReport, RelationReport
from .weil_data import (
    DEFAULT_POINT_BOUND,
    MAX_ENTRY_DIGITS,
    EllipticCurveSpec,
    check_q,
    check_weil_size,
    direct_sum,
)

FORMAT_NAME = "phinmod-instance-v1"
REPORT_NAME = "phinmod-report-v1"

# A matrix entry is a decimal integer or "a/b".  Fraction alone would also
# take exponents and build the value of "1e999999999"; int alone would take
# "1_000", surrounding whitespace and non-ASCII digits.
_ENTRY = re.compile(r"[+-]?[0-9]{1,%d}(?:/[0-9]{1,%d})?" % (MAX_ENTRY_DIGITS, MAX_ENTRY_DIGITS))
# An integer field given as a string, such as p, f or a genus.
INT_TEXT = re.compile(r"[+-]?[0-9]+")


def _get(obj: Mapping, field: str, context: str):
    """obj[field]; ``context`` is the dotted path of obj plus a trailing dot."""
    # dict first: it is what JSON gives, and the ABC check costs ten times more
    if not isinstance(obj, dict) and not isinstance(obj, Mapping):
        raise SchemaError(f"field '{context[:-1]}' must be an object")
    if field not in obj:
        raise SchemaError(f"missing field '{context}{field}'")
    return obj[field]


def _get_list(obj: Mapping, field: str, context: str) -> list:
    value = _get(obj, field, context)
    if not isinstance(value, list):
        raise SchemaError(f"field '{context}{field}' must be an array")
    return value


def _get_str(obj: Mapping, field: str, context: str) -> str:
    value = _get(obj, field, context)
    if not isinstance(value, str):
        raise SchemaError(f"field '{context}{field}' must be a string")
    return value


def _as_int(value, context: str) -> int:
    if isinstance(value, bool):
        raise SchemaError(f"field '{context}' must be an integer string")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            if INT_TEXT.fullmatch(value):
                return int(value)
        except ValueError:  # beyond Python's int/str digit limit
            pass
        raise SchemaError(f"field '{context}' is not an integer: {clipped(value)}")
    raise SchemaError(f"field '{context}' must be an integer string")


def matrix_to_strings(m: QMatrix) -> list:
    # fresh row lists sliced from the text the matrix keeps, so a matrix
    # written twice in one report is converted once and no row is shared
    s, c = m.entry_strings, m.cols
    return [list(s[i * c:(i + 1) * c]) for i in range(m.rows)]


class BlockRows:
    """A d x d matrix of entry strings, held as one run of cells per row:
    row i is "0" except for the cells ``runs[i][1]`` from column
    ``runs[i][0]`` on, and a row whose cells are empty is all "0".

    It reads as its sequence of rows: ``len``, indexing and iteration give
    fresh lists, and ``==`` compares it with any sequence of rows.  A deep
    copy is that list of row lists, so a copied report can be edited.
    :func:`dump_json` writes it from the runs, without building the rows.
    """

    def __init__(self, size: int, runs: tuple):
        if len(runs) != size:
            raise ValueError("one run per row")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "runs", runs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _row(self, i: int) -> list:
        start, cells = self.runs[i]
        row = ["0"] * self.size
        row[start:start + len(cells)] = cells
        return row

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        k = range(self.size)[i]  # an int or a range; IndexError as a list raises it
        return self._row(k) if isinstance(k, int) else [self._row(j) for j in k]

    def __iter__(self):
        return map(self._row, range(self.size))

    def __eq__(self, other):
        if not isinstance(other, (BlockRows, Sequence)) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(other) == self.size and all(
            isinstance(theirs, Sequence) and not isinstance(theirs, str)
            and mine == list(theirs)
            for mine, theirs in zip(self, other)
        )

    __hash__ = None

    def __deepcopy__(self, memo) -> list:
        return list(self)

    def __repr__(self) -> str:
        return f"BlockRows(size={self.size}, runs={self.runs!r})"


def _runs(m: QMatrix, factors, offset: int = 0) -> list:
    """(start, cells) of each row of the square ``m``: the row's diagonal
    block, sized by the degrees of ``factors``, is its run, or the whole
    row if it has a nonzero entry outside that block.  ``offset`` is added
    to each start.  Only the cells of runs are converted to text."""
    n, e = m.cols, m.entries
    if not n:
        return []
    sizes = [len(chi) - 1 for chi in factors]
    if sum(sizes) != n:
        sizes = (n,)
    zero, runs, o = (0,) * n, [], 0
    for size in sizes:
        end = o + size
        left, right = zero[:o], zero[end:]
        for base in range(o * n, end * n, n):
            if e[base:base + o] == left and e[base + end:base + n] == right:
                a, b = o, end
            else:
                a, b = 0, n
            runs.append((offset + a, tuple(map(str, e[base + a:base + b]))))
        o = end
    return runs


def _parse_entry(x):
    s = str(x)
    if not _ENTRY.fullmatch(s):
        raise ValueError(
            f"{clipped(s)} is not a decimal integer or a/b of at most "
            f"{MAX_ENTRY_DIGITS} digits"
        )
    return parse_rational(s)


def _parse_row(r: list) -> list:
    """One regex pass over a row of strings; a row of integers, with no
    "/", is then read by one map.  Any other row is read entry by entry,
    so its values and its first bad entry's message are the same."""
    try:
        if all(map(_ENTRY.fullmatch, r)) and "/" not in "".join(r):
            return list(map(int, r))
    except TypeError:  # an entry that is not a string
        pass
    return [_parse_entry(x) for x in r]


def matrix_from_strings(rows, context: str) -> QMatrix:
    if isinstance(rows, BlockRows):  # a report read back in the same process
        rows = list(rows)
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SchemaError(f"field '{context}' must be an array of arrays")
    try:
        parsed = [_parse_row(r) for r in rows]
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"field '{context}' has a bad entry: {exc}") from None
    if not parsed:
        return QMatrix(0, 0, ())
    try:
        return QMatrix.from_rows(parsed)
    except ValueError as exc:
        raise SchemaError(f"field '{context}': {exc}") from None


# -- component sources -------------------------------------------------------

def source_to_json(src) -> dict:
    if src is None:
        return {"type": "genus0"}
    if isinstance(src, EllipticCurveSpec):
        return {"type": "elliptic", "a4": str(src.a4), "a6": str(src.a6)}
    return {"type": "matrix", "entries": matrix_to_strings(src)}


def source_from_json(obj, p: int, context: str):
    if not isinstance(obj, Mapping):
        raise SchemaError(f"field '{context}' must be an object")
    kind = _get(obj, "type", context + ".")
    if kind == "genus0":
        return None
    if kind == "elliptic":
        return EllipticCurveSpec(
            p,
            _as_int(_get(obj, "a4", context + "."), context + ".a4"),
            _as_int(_get(obj, "a6", context + "."), context + ".a6"),
        )
    if kind == "matrix":
        entries = _get(obj, "entries", context + ".")
        if isinstance(entries, (list, BlockRows)):
            # validate_weil checks this too; here the message names the
            # field, and a large block is refused before it is parsed
            check_weil_size(len(entries), f"field '{context}.entries'")
        m = matrix_from_strings(entries, context + ".entries")
        if not m.is_integral():
            raise SchemaError(f"field '{context}.entries' must be integral")
        return m
    raise SchemaError(f"field '{context}.type' has unknown value {clipped(kind)}")


# -- instances ----------------------------------------------------------------

def instance_to_json(inst) -> dict:
    """Canonical JSON form of a curve or abelian-variety instance."""
    if isinstance(inst, CurveInstance):
        return {
            "format": FORMAT_NAME,
            "kind": "curve",
            "p": str(inst.p),
            "f": str(inst.f),
            "graph": {
                "vertices": [
                    {"id": v.id, "genus": str(v.genus)} for v in inst.graph.vertices
                ],
                "edges": [
                    {"id": e.id, "tail": e.tail, "head": e.head}
                    for e in inst.graph.edges
                ],
            },
            "components": {
                vid: source_to_json(src) for vid, src in inst.components.items()
            },
        }
    if isinstance(inst, UniformizationData):
        return {
            "format": FORMAT_NAME,
            "kind": "av",
            "p": str(inst.p),
            "f": str(inst.f),
            "torus_rank": str(inst.torus_rank),
            "gram": matrix_to_strings(inst.gram),
            "b_frobenius": [{"type": "matrix", "entries": _block_rows(inst.b_frobenius)}],
        }
    raise TypeError(f"not an instance: {inst!r}")


def instance_from_json(obj, bound: int = DEFAULT_POINT_BOUND):
    """Parse and validate an instance file; SchemaError names the bad field."""
    if not isinstance(obj, Mapping):
        raise SchemaError("instance file must be a JSON object")
    # an instance may omit its format; one that names it names this one
    if "format" in obj and obj["format"] != FORMAT_NAME:
        raise SchemaError(f"field 'format' must be {FORMAT_NAME!r}")
    kind = _get(obj, "kind", "")
    p = _as_int(_get(obj, "p", ""), "p")
    f = _as_int(_get(obj, "f", ""), "f")
    if kind == "curve":
        graph_obj = _get(obj, "graph", "")
        vertices = []
        for k, v in enumerate(_get_list(graph_obj, "vertices", "graph.")):
            vertices.append(
                (
                    _get_str(v, "id", f"graph.vertices[{k}]."),
                    _as_int(_get(v, "genus", f"graph.vertices[{k}]."), f"graph.vertices[{k}].genus"),
                )
            )
        edges = []
        for k, e in enumerate(_get_list(graph_obj, "edges", "graph.")):
            edges.append(
                (
                    _get_str(e, "id", f"graph.edges[{k}]."),
                    _get_str(e, "tail", f"graph.edges[{k}]."),
                    _get_str(e, "head", f"graph.edges[{k}]."),
                )
            )
        graph = DualGraph.build(vertices, edges)
        comp_obj = _get(obj, "components", "")
        if not isinstance(comp_obj, Mapping):
            raise SchemaError("field 'components' must be an object")
        components = {
            vid: source_from_json(src, p, f"components.{clipped_key(vid)}")
            for vid, src in comp_obj.items()
        }
        return CurveInstance(graph=graph, components=components, p=p, f=f)
    if kind == "av":
        torus_rank = _as_int(_get(obj, "torus_rank", ""), "torus_rank")
        gram = matrix_from_strings(_get(obj, "gram", ""), "gram")
        blocks = []
        for k, src_obj in enumerate(_get_list(obj, "b_frobenius", "")):
            src = source_from_json(src_obj, p, f"b_frobenius[{k}]")
            if isinstance(src, EllipticCurveSpec) and f != 1:
                raise SchemaError(
                    f"field 'b_frobenius[{k}]': elliptic sources require f = 1"
                )
            blocks.append(resolve_component(src, p, f, bound))
        b = direct_sum(blocks, p, f)
        return UniformizationData(
            torus_rank=torus_rank, gram=gram, b_frobenius=b, p=p, f=f
        )
    raise SchemaError(f"field 'kind' has unknown value {clipped(kind)}")


def load_instance(path: str, bound: int = DEFAULT_POINT_BOUND):
    # Besides malformed JSON, bad UTF-8 and integers over Python's digit
    # limit raise ValueError, and arrays nested too deeply RecursionError.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from None
    return instance_from_json(obj, bound)


# -- reports ------------------------------------------------------------------

def _passfail(ok: bool) -> str:
    return "pass" if ok else "fail"


def polygon_to_strings(slopes) -> list:
    return [[rational_str(s), str(m)] for s, m in slopes]


def _block_rows(w) -> BlockRows:
    """A Weil matrix's entries, its blocks read off the degrees of its
    factors."""
    return BlockRows(w.size, tuple(_runs(w.matrix, w.factors)))


def _phi_rows(m: PhiNModule) -> BlockRows:
    """Dense phi = diag(phi0 * I_w0, phi1, phi2 * I_w2), one run per row:
    the scalar on the diagonal, or the row's block of phi1."""
    w0, w1, _ = m.dims
    phi0, phi2 = (rational_str(m.phi0),), (rational_str(m.phi2),)
    runs = [(k, phi0) for k in range(w0)]
    runs += _runs(m.phi1, m.phi1_factors, w0)
    runs += [(k, phi2) for k in range(w0 + w1, m.dimension)]
    return BlockRows(m.dimension, tuple(runs))


def _n_rows(m: PhiNModule) -> BlockRows:
    """Dense N: the rows of n02 from column w0 + w1 on in the weight-0
    rows, and zero rows below."""
    w0, w1, w2 = m.dims
    s = m.n02.entry_strings
    return BlockRows(m.dimension, tuple(
        [(w0 + w1, s[i * w2:(i + 1) * w2]) for i in range(w0)] + [(0, ())] * (w1 + w2)
    ))


def module_to_json(m: PhiNModule, polygons: PolygonReport) -> dict:
    w0, w1, w2 = m.dims
    return {
        "p": str(m.p),
        "f": str(m.f),
        "dims": {"w0": str(w0), "w1": str(w1), "w2": str(w2)},
        "fil1_dim": str(m.fil1_dim),
        "t_newton": rational_str(polygons.t_newton),
        "t_hodge": str(polygons.t_hodge),
        "newton_slopes": polygon_to_strings(polygons.newton.slopes),
        "hodge_slopes": polygon_to_strings(polygons.hodge.slopes),
        "phi": _phi_rows(m),
        "n": _n_rows(m),
        "gram": matrix_to_strings(m.gram),
    }


def _square_block(m: QMatrix, row: int, col: int, size: int) -> QMatrix:
    if size == 0:
        return QMatrix(0, 0, ())
    return QMatrix.from_rows([m.row(i)[col:col + size] for i in range(row, row + size)])


def module_from_report(report: Mapping) -> PhiNModule:
    """Rebuild the exact module from a report's matrices (bit-exact).

    The dense phi and n are split into the blocks of :class:`PhiNModule`
    and written back; a matrix the blocks do not reproduce exactly (an entry
    outside them, or a weight-0 or weight-2 block of phi that is not scalar)
    is not in the documented form and raises SchemaError naming
    ``module.phi`` or ``module.n``.  So is a bad (p, f), a ``fil1_dim``
    outside [0, d] or a ``gram`` that is not w2 x w2.
    """
    mod = _get(report, "module", "")
    dims = _get(mod, "dims", "module.")
    p = _as_int(_get(mod, "p", "module."), "module.p")
    f = _as_int(_get(mod, "f", "module."), "module.f")
    check_q(p, f, "module.")
    w0, w1, w2 = (
        _as_int(_get(dims, w, "module.dims."), f"module.dims.{w}")
        for w in ("w0", "w1", "w2")
    )
    if min(w0, w1, w2) < 0 or w0 != w2:
        raise SchemaError(f"field 'module.dims' has bad ranks {(w0, w1, w2)}")
    d = w0 + w1 + w2
    fil1_dim = _as_int(_get(mod, "fil1_dim", "module."), "module.fil1_dim")
    if not 0 <= fil1_dim <= d:
        raise SchemaError(f"field 'module.fil1_dim' = {fil1_dim} is not in [0, {d}]")
    dense = {}
    for name, size in (("phi", d), ("n", d), ("gram", w2)):
        dense[name] = matrix_from_strings(_get(mod, name, "module."), f"module.{name}")
        if (dense[name].rows, dense[name].cols) != (size, size):
            raise SchemaError(f"field 'module.{name}' is not {size}x{size}")
    phi, n = dense["phi"], dense["n"]
    phi1 = _square_block(phi, w0, w0, w1)
    module = PhiNModule(
        p=p,
        f=f,
        phi0=phi[0, 0] if w0 else 1,
        phi1=phi1,
        phi1_factors=(tuple(char_poly(phi1)),),
        phi2=phi[d - 1, d - 1] if w2 else p ** f,
        n02=_square_block(n, 0, w0 + w1, w0),
        fil1_dim=fil1_dim,
        gram=dense["gram"],
    )
    for name, written in (("phi", _phi_rows(module)), ("n", _n_rows(module))):
        if written != matrix_to_strings(dense[name]):
            raise SchemaError(
                f"field 'module.{name}' is not in block form: an entry lies outside "
                "the weight blocks, or a weight-0 or weight-2 block is not scalar"
            )
    return module


def relations_to_json(r: RelationReport) -> dict:
    return {
        "n_squared_zero": _passfail(r.n_squared_zero),
        "n_phi_commutation": _passfail(r.n_phi_commutation),
        "phi_invertible": _passfail(r.phi_invertible),
        "n_rank_is_torus_rank": _passfail(r.n_rank_is_torus_rank),
    }


def polygons_to_json(p: PolygonReport) -> dict:
    return {
        "endpoints_equal": _passfail(p.endpoints_equal),
        "newton_on_or_above_hodge": _passfail(p.newton_on_or_above_hodge),
        "newton_symmetric": _passfail(p.newton_symmetric),
    }


def _write(obj: Any, indent: str) -> str:
    """JSON text of ``obj`` as ``json.dumps(indent=2, sort_keys=True)``
    writes it; ``indent`` is the newline and indentation of the line that
    holds ``obj``."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        return "{" + inner + ("," + inner).join([
            _encode_str(k) + ": " + (_encode_str(v) if isinstance(v, str) else _write(v, inner))
            for k, v in sorted(obj.items())
        ]) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        # A matrix: non-empty rows of strings, none of which needs escaping.
        # "".join would also take a str or a dict as a row, so each row's
        # type is checked; any other list takes the general path below.
        if all(isinstance(r, (list, tuple)) and r for r in obj):
            try:
                text = "".join(["".join(r) for r in obj])
            except TypeError:  # an entry is not a string
                pass
            else:
                # Every escape is longer than the character it replaces, so the
                # quoted text is 2 longer exactly when no entry needs escaping.
                if len(_encode_str(text)) == len(text) + 2:
                    row_inner = inner + "  "
                    head, sep, tail = "[" + row_inner + '"', '",' + row_inner + '"', '"' + inner + "]"
                    return "[" + inner + ("," + inner).join(
                        [head + sep.join(r) + tail for r in obj]
                    ) + indent + "]"
        return "[" + inner + ("," + inner).join([_write(x, inner) for x in obj]) + indent + "]"
    if isinstance(obj, BlockRows):
        return _write_block_rows(obj, indent)
    return json.dumps(obj)


def _write_block_rows(obj: BlockRows, indent: str) -> str:
    """The text of a BlockRows in :func:`_write`, written from its runs."""
    d = obj.size
    if not d:
        return "[]"
    # As for a matrix in _write: a cell that is not a string or needs
    # escaping sends the rows down the list path.
    try:
        text = "".join(["".join(cells) for _, cells in obj.runs])
        plain = len(_encode_str(text)) == len(text) + 2
    except TypeError:
        plain = False
    if not plain:
        return _write(list(obj), indent)
    # A row is the text of its leading zeros, its cells and its trailing
    # zeros, the two zero texts sliced from ("0" + sep) * d; the pieces
    # of all rows are joined once.
    inner = indent + "  "
    row_inner = inner + "  "
    sep = '",' + row_inner + '"'
    head, tail = "[" + row_inner + '"', '"' + inner + "]"
    between = tail + "," + inner + head
    step = len(sep) + 1
    zeros = ("0" + sep) * d
    zero_row = zeros[:-len(sep)]
    parts = []
    for s, cells in obj.runs:
        if cells:
            parts += (zeros[:s * step], sep.join(cells),
                      zeros[1:1 + (d - s - len(cells)) * step], between)
        else:
            parts += (zero_row, between)
    parts[-1] = tail
    return "[" + inner + head + "".join(parts) + indent + "]"


def dump_json(obj: Any) -> str:
    """Canonical byte-stable serialization: exactly the text of
    ``json.dumps(obj, indent=2, sort_keys=True, default=list) + "\\n"``,
    where ``default=list`` writes a :class:`BlockRows` as its rows.

    Dictionary keys must be ``str``.  With ``indent``, ``json.dumps`` runs
    its pure-Python encoder over every string of the dense report matrices;
    this writer writes a whole matrix of strings with a few C joins instead.
    ``tests/test_report_writer.py`` checks the equality.
    """
    return _write(obj, "\n") + "\n"


def build_report(inst, module, relations, polygons, duality_ok, agreement_ok=None) -> dict:
    checks = {
        "relations": relations_to_json(relations),
        "monodromy_duality": _passfail(duality_ok),
        "polygons": polygons_to_json(polygons),
    }
    if agreement_ok is not None:
        checks["curve_jacobian_agreement"] = _passfail(agreement_ok)
    return {
        "format": REPORT_NAME,
        "instance": instance_to_json(inst),
        "module": module_to_json(module, polygons),
        "checks": checks,
    }


def failed_checks(report: Mapping) -> list:
    """Dotted names of the report's checks that did not pass, such as
    ``relations.n_phi_commutation``, in sorted order."""
    failed = []
    for name, value in sorted(report["checks"].items()):
        if isinstance(value, Mapping):
            failed.extend(f"{name}.{k}" for k, v in sorted(value.items()) if v != "pass")
        elif value != "pass":
            failed.append(name)
    return failed


def report_all_pass(report: Mapping) -> bool:
    return not failed_checks(report)
