"""Instance and report serialization.

One JSON dialect for both: every number is a decimal string, so consumers
never face 64-bit overflow and round-trips are bit-exact.  Matrix entries
are integers; only a slope or ``t_newton`` of a report may be fractional.
The report keeps each as its lowest-terms pair (num, den), den >= 1, and
it is written "num" when den is 1 and "num/den" otherwise.  A matrix entry
that is not a decimal integer of at most MAX_ENTRY_DIGITS digits is
refused before it is parsed.

:func:`instance_from_json` reads an instance in one pass, in the order of
its fields, and builds each record as soon as its fields are read: a
curve's graph before its components.  It only reads: a component source is
kept as the file gives it (None, an EllipticCurveSpec or a QMatrix), and no
point is counted and no Weil block certified until
``builders.build_from_av`` resolves the sources.  So a file's shape fault
is named before a record's (``check_q``, the torus rank, an elliptic
source at f != 1), and both before a refused certificate.  Each integer
field, vertex, edge, component source and matrix has a fast path, exact
type tests with integer fields matched by ``INT_TEXT`` and matrix entries
by ``_ENTRY``, that builds no message context.  If those tests fail (a
missing key, a value of the wrong JSON type, a JSON number where a string
of digits belongs, a bad entry, a ragged, non-square or oversized matrix,
an unknown source type), the same node alone is read again, field by field
and entry by entry, by helpers that either take a rarer spelling (a JSON
number in an integer field or entry, a mapping that is not a dict) or
raise the SchemaError that names the fault.

A request's result is a :class:`Report` record: the instance, its module
and the verdicts of its checks.  :func:`dump_json` writes it section by
section with functions that know each section's keys in sorted order: the
checks from the two check records and the two booleans, the instance echo
from the :class:`CurveInstance`, or from the :class:`UniformizationData`
and the module's phi1 blocks, and the module from its blocks.  Every piece
is appended to one list, joined once.  The text is exactly
``json.dumps(d, indent=2, sort_keys=True) + "\\n"`` of the report as a dict,
or of a curve instance written alone as a dict (``tests/oracles.py``
builds both dicts; :func:`instance_to_json` reads the second back from the
text).  Input strings (ids and component keys) are quoted by the C
``encode_basestring_ascii``; number strings never need escaping.

Each square matrix is written from one run of cells per row: row i is "0"
but for its run.  The dense d x d ``phi`` and ``n``, and the ``b_frobenius``
entries of an abelian-variety echo, take their runs from the module's
blocks: the scalars, N's one block, and each row of a phi1 block, its
cells from the text the block keeps, moved right by the sizes of the
blocks before it.
So no d x d or w1 x w1 matrix or row list is built, and each cell of a
block is converted to text once, however often it is written.  Another
matrix has its whole rows as runs.  The text of a zero row is made once,
and each other row is a slice of one zero-run text, its cells joined once,
and the matching slice.
"""

import json
import re
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii as _encode_str

from ._record import Record
from .builders import CurveInstance, UniformizationData
from .errors import SchemaError, clipped, clipped_key
from .exact_linalg import QMatrix
from .graph_core import DualGraph, Edge, Vertex
from .phin_module import PhiNModule, PolygonReport, RelationReport
from .weil_data import MAX_ENTRY_DIGITS, MAX_WEIL_SIZE, EllipticCurveSpec, check_weil_size

FORMAT_NAME = "phinmod-instance-v1"
REPORT_NAME = "phinmod-report-v1"

# A matrix entry is a decimal integer.  int alone would also take "1_000",
# surrounding whitespace and non-ASCII digits.
_ENTRY = re.compile(r"[+-]?[0-9]{1,%d}" % MAX_ENTRY_DIGITS)
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


def _parse_entry(x) -> int:
    s = str(x)
    if not _ENTRY.fullmatch(s):
        raise ValueError(
            f"{clipped(s)} is not a decimal integer of at most {MAX_ENTRY_DIGITS} digits"
        )
    return int(s)


def matrix_from_strings(rows, context: str) -> QMatrix:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SchemaError(f"field '{context}' must be an array of arrays")
    try:
        parsed = [[_parse_entry(x) for x in r] for r in rows]
    except ValueError as exc:
        raise SchemaError(f"field '{context}' has a bad entry: {exc}") from None
    if not parsed:
        return QMatrix(0, 0, ())
    try:
        return QMatrix.from_rows(parsed)
    except ValueError as exc:
        raise SchemaError(f"field '{context}': {exc}") from None


# -- component sources -------------------------------------------------------

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
        if isinstance(entries, list):
            # validate_weil checks this too; here the message names the
            # field, and a large block is refused before it is parsed
            check_weil_size(len(entries), f"field '{context}.entries'")
        m = matrix_from_strings(entries, context + ".entries")
        if not m.is_square:
            raise SchemaError(f"field '{context}.entries' is {m.rows}x{m.cols}, not square")
        return m
    raise SchemaError(f"field '{context}.type' has unknown value {clipped(kind)}")


# -- instances ----------------------------------------------------------------

def instance_to_json(inst: CurveInstance) -> dict:
    """The curve instance ``inst`` as the dict its canonical text holds
    (``perfbench/selftest.py`` compares its generator with it)."""
    return json.loads(dump_json(inst))


def _int(text) -> int:
    """An integer field on the fast path: a string of INT_TEXT.  A JSON
    number, or any other value, raises TypeError, and digits beyond Python's
    int/str limit raise ValueError."""
    if not INT_TEXT.fullmatch(text):
        raise ValueError(text)
    return int(text)


def _matrix(rows) -> QMatrix:
    """A matrix on the fast path: a list of equal-length lists of entry
    strings, each matched by ``_ENTRY``; any other value raises ValueError
    or TypeError."""
    if type(rows) is not list:
        raise ValueError("not a list")
    n = len(rows[0]) if rows else 0
    cells = []
    for r in rows:
        if type(r) is not list or len(r) != n:
            raise ValueError("not a row")
        cells += r
    if not all(map(_ENTRY.fullmatch, cells)):  # TypeError for a non-string
        raise ValueError("bad entry")
    return QMatrix(len(rows), n, tuple(map(int, cells)))


def _source(src, p: int, field: str, key):
    """The component source ``src`` at p: None for genus 0, an
    :class:`EllipticCurveSpec`, or a square matrix of at most MAX_WEIL_SIZE
    rows.  Any other shape is read again by :func:`source_from_json`, which
    takes a rarer spelling or names the fault at ``field % clipped_key(key)``."""
    try:
        if type(src) is not dict:
            raise TypeError("not an object")
        kind = src["type"]
        if kind == "genus0":
            return None
        if kind == "elliptic":
            a4, a6 = _int(src["a4"]), _int(src["a6"])
        else:
            # the size is tested first, so a large block is not read
            rows = src["entries"] if kind == "matrix" else None
            if type(rows) is not list or len(rows) > MAX_WEIL_SIZE:
                raise ValueError("not a matrix source")
            m = _matrix(rows)
            if m.rows != m.cols:
                raise ValueError("not square")
            return m
    except (KeyError, TypeError, ValueError):
        return source_from_json(src, p, field % clipped_key(key))
    return EllipticCurveSpec(p, a4, a6)


def instance_from_json(obj):
    """Parse and validate an instance file in one pass, each node by its
    fast path or, failing that, read again alone; SchemaError names the bad
    field."""
    if type(obj) is not dict and not isinstance(obj, Mapping):
        raise SchemaError("instance file must be a JSON object")
    # an instance may omit its format; one that names it names this one
    if "format" in obj and obj["format"] != FORMAT_NAME:
        raise SchemaError(f"field 'format' must be {FORMAT_NAME!r}")
    try:
        kind, p, f = obj["kind"], _int(obj["p"]), _int(obj["f"])
    except (KeyError, TypeError, ValueError):
        kind = _get(obj, "kind", "")
        p, f = _as_int(_get(obj, "p", ""), "p"), _as_int(_get(obj, "f", ""), "f")
    if kind == "curve":
        graph = _get(obj, "graph", "")
        vertices = []
        for k, v in enumerate(_get_list(graph, "vertices", "graph.")):
            try:
                if type(v) is not dict or type(i := v["id"]) is not str:
                    raise TypeError("not a vertex")
                vertices.append(Vertex(i, _int(v["genus"])))
            except (KeyError, TypeError, ValueError):
                at = f"graph.vertices[{k}]."
                vertices.append(Vertex(_get_str(v, "id", at),
                                       _as_int(_get(v, "genus", at), at + "genus")))
        edges = []
        for k, e in enumerate(_get_list(graph, "edges", "graph.")):
            try:
                if type(e) is not dict:
                    raise TypeError("not an edge")
                i, t, h = e["id"], e["tail"], e["head"]
                if not type(i) is type(t) is type(h) is str:
                    raise TypeError("not an edge")
                edges.append(Edge(i, t, h))
            except (KeyError, TypeError, ValueError):
                at = f"graph.edges[{k}]."
                edges.append(Edge(_get_str(e, "id", at), _get_str(e, "tail", at),
                                  _get_str(e, "head", at)))
        graph = DualGraph(tuple(vertices), tuple(edges))
        comps = _get(obj, "components", "")
        if type(comps) is not dict and not isinstance(comps, Mapping):
            raise SchemaError("field 'components' must be an object")
        components = {vid: _source(src, p, "components.%s", vid) for vid, src in comps.items()}
        return CurveInstance(graph=graph, components=components, p=p, f=f)
    if kind == "av":
        try:
            torus_rank = _int(obj["torus_rank"])
        except (KeyError, TypeError, ValueError):
            torus_rank = _as_int(_get(obj, "torus_rank", ""), "torus_rank")
        gram = _get(obj, "gram", "")
        try:
            gram = _matrix(gram)
        except (TypeError, ValueError):
            gram = matrix_from_strings(gram, "gram")
        sources = [_source(src, p, "b_frobenius[%s]", k)
                   for k, src in enumerate(_get_list(obj, "b_frobenius", ""))]
        return UniformizationData(torus_rank=torus_rank, gram=gram, b_frobenius=sources,
                                  p=p, f=f)
    raise SchemaError(f"field 'kind' has unknown value {clipped(kind)}")


def load_instance(path: str):
    # Besides malformed JSON, bad UTF-8 and integers over Python's digit
    # limit raise ValueError, and arrays nested too deeply RecursionError.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from None
    return instance_from_json(obj)


# -- reports ------------------------------------------------------------------

class Report(Record):
    """One request's result: the instance, its module and the verdicts of
    its checks.  ``agreement`` is the curve/Jacobian verdict, None for an
    abelian variety.  :func:`dump_json` writes it."""

    _fields = ("instance", "module", "relations", "polygons", "duality", "agreement")

    def __init__(self, instance, module: PhiNModule, relations: RelationReport,
                 polygons: PolygonReport, duality: bool, agreement=None):
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "polygons", polygons)
        object.__setattr__(self, "duality", duality)
        object.__setattr__(self, "agreement", agreement)


def build_report(inst, module, relations, polygons, duality_ok, agreement_ok=None) -> Report:
    return Report(inst, module, relations, polygons, duality_ok, agreement_ok)


def _verdicts(r: Report) -> list:
    """(dotted name, passed) of each check of ``r``, sorted by name: the
    order in which the report writes them."""
    checks = [] if r.agreement is None else [("curve_jacobian_agreement", r.agreement)]
    checks.append(("monodromy_duality", r.duality))
    checks += [(f"polygons.{name}", getattr(r.polygons, name))
               for name in ("endpoints_equal", "newton_on_or_above_hodge", "newton_symmetric")]
    checks += [(f"relations.{name}", getattr(r.relations, name))
               for name in ("n_phi_commutation", "n_rank_is_torus_rank", "n_squared_zero",
                            "phi_invertible")]
    return checks


def failed_checks(report: Report) -> list:
    """Dotted names of the report's checks that did not pass, such as
    ``relations.n_phi_commutation``, in sorted order."""
    return [name for name, ok in _verdicts(report) if not ok]


def report_all_pass(report: Report) -> bool:
    return not failed_checks(report)


def _block_runs(blocks, start: int = 0) -> list:
    """(start, cells) of each row of the block-diagonal sum of the square
    ``blocks``, moved right by ``start``: a row of a block is its cells,
    sliced from the text the block keeps, from ``start`` plus the sizes of
    the blocks before it."""
    runs = []
    for b in blocks:
        s, n = b.entry_strings, b.cols
        runs += [(start, s[i * n:(i + 1) * n]) for i in range(n)]
        start += n
    return runs


def _phi_runs(m: PhiNModule) -> list:
    """Dense phi = diag(I_w0, phi1, q * I_w2), one run per row: the scalar
    on the diagonal, or the row of its phi1 block, moved right by w0."""
    w0, w1, _ = m.dims
    one, q = ("1",), (str(m.q),)
    runs = [(k, one) for k in range(w0)]
    runs += _block_runs(m.phi1_blocks, w0)
    runs += [(k, q) for k in range(w0 + w1, m.dimension)]
    return runs


def _n_runs(m: PhiNModule) -> list:
    """Dense N: the rows of gram from column w0 + w1 on in the weight-0
    rows, and zero rows below."""
    w0, w1, w2 = m.dims
    s = m.gram.entry_strings
    return [(w0 + w1, s[i * w2:(i + 1) * w2]) for i in range(w0)] + [(0, ())] * (w1 + w2)


def _write_rows(out: list, d: int, runs, indent: str) -> None:
    """Append the d x d matrix whose row i is "0" but for the cells of
    ``runs[i]`` from its start; ``indent`` is the newline and indentation
    of the line that holds the matrix.  A row is the text of its leading
    zeros, its cells and its trailing zeros, the two zero texts sliced from
    ("0" + sep) * d."""
    if not d:
        out.append("[]")
        return
    inner = indent + "  "
    row_inner = inner + "  "
    sep = '",' + row_inner + '"'
    between = '"' + inner + "]," + inner + "[" + row_inner + '"'
    step = len(sep) + 1
    zeros = ("0" + sep) * d
    zero_row = zeros[:-len(sep)]
    out.append("[" + inner + "[" + row_inner + '"')
    for s, cells in runs:
        if cells:
            out += (zeros[:s * step], sep.join(cells),
                    zeros[1:1 + (d - s - len(cells)) * step], between)
        else:
            out += (zero_row, between)
    out[-1] = '"' + inner + "]" + indent + "]"


def _array(items: list, indent: str) -> str:
    """The JSON array of the texts ``items`` on a line indented by ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _write_source(out: list, src, indent: str) -> None:
    """Append a component source: its ``type`` and its fields."""
    i1 = indent + "  "
    if src is None:
        out.append("{" + i1 + '"type": "genus0"' + indent + "}")
    elif isinstance(src, EllipticCurveSpec):
        out.append("{" + f'{i1}"a4": "{src.a4}",{i1}"a6": "{src.a6}",{i1}"type": "elliptic"'
                   + indent + "}")
    else:
        out.append("{" + i1 + '"entries": ')
        _write_rows(out, src.rows, _block_runs((src,)), i1)
        out.append("," + i1 + '"type": "matrix"' + indent + "}")


def _write_instance(out: list, inst, indent: str, m: PhiNModule = None) -> None:
    """Append the echo of a curve instance: components in ascending
    vertex-id order, then the graph's edges and vertices in their order.
    An abelian variety is echoed only in the report of its module ``m``:
    its sources as one matrix source, the resolved Weil matrix, written
    from m's phi1 blocks."""
    i1 = indent + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    if isinstance(inst, CurveInstance):
        # a graph has a vertex, and each vertex a component
        out.append("{" + i1 + '"components": {')
        for vid, src in inst.components:
            out += (i2, _encode_str(vid), ": ")
            _write_source(out, src, i2)
            out.append(",")
        out[-1] = i1 + "},"
        i4 = i3 + "  "
        head, then_id, then_tail = "{" + i4 + '"head": ', "," + i4 + '"id": ', "," + i4 + '"tail": '
        genus, then_vid, close = "{" + i4 + '"genus": "', '",' + i4 + '"id": ', i3 + "}"
        edges = [head + _encode_str(e.head) + then_id + _encode_str(e.id) + then_tail
                 + _encode_str(e.tail) + close for e in inst.graph.edges]
        vertices = [genus + str(v.genus) + then_vid + _encode_str(v.id) + close
                    for v in inst.graph.vertices]
        out += (
            f'{i1}"f": "{inst.f}",{i1}"format": "{FORMAT_NAME}",{i1}"graph": {{{i2}"edges": ',
            _array(edges, i2), f',{i2}"vertices": ', _array(vertices, i2),
            f'{i1}}},{i1}"kind": "curve",{i1}"p": "{inst.p}"{indent}}}',
        )
    elif isinstance(inst, UniformizationData) and m is not None:
        out.append(f'{{{i1}"b_frobenius": [{i2}{{{i3}"entries": ')
        _write_rows(out, m.dims[1], _block_runs(m.phi1_blocks), i3)
        out.append(f',{i3}"type": "matrix"{i2}}}{i1}],{i1}"f": "{inst.f}",'
                   f'{i1}"format": "{FORMAT_NAME}",{i1}"gram": ')
        _write_rows(out, inst.gram.rows, _block_runs((inst.gram,)), i1)
        out.append(f',{i1}"kind": "av",{i1}"p": "{inst.p}",'
                   f'{i1}"torus_rank": "{inst.torus_rank}"{indent}}}')
    else:
        raise TypeError(f"not a report or a curve instance: {type(inst).__name__}")


_AGREEMENT = '\n    "curve_jacobian_agreement": "%s",'
_REPORT_HEAD = '''{
  "checks": {%s
    "monodromy_duality": "%s",
    "polygons": {
      "endpoints_equal": "%s",
      "newton_on_or_above_hodge": "%s",
      "newton_symmetric": "%s"
    },
    "relations": {
      "n_phi_commutation": "%s",
      "n_rank_is_torus_rank": "%s",
      "n_squared_zero": "%s",
      "phi_invertible": "%s"
    }
  },
  "format": "''' + REPORT_NAME + '''",
  "instance": '''
_MODULE_HEAD = ''',
  "module": {
    "dims": {
      "w0": "%s",
      "w1": "%s",
      "w2": "%s"
    },
    "f": "%s",
    "fil1_dim": "%s",
    "gram": '''


def _ratio(pair: tuple) -> str:
    """Text of a lowest-terms (num, den): "num" when den is 1, else
    "num/den"."""
    num, den = pair
    return str(num) if den == 1 else f"{num}/{den}"


def _slopes(slopes, indent: str) -> str:
    """[[slope, multiplicity], ...] of a polygon's pairs, each slope
    written by :func:`_ratio`."""
    i1, i2 = indent + "  ", indent + "    "
    return _array([f'[{i2}"{_ratio(s)}",{i2}"{n}"{i1}]' for s, n in slopes], indent)


def _write_report(out: list, r: Report) -> None:
    verdicts = ["pass" if ok else "fail" for _, ok in _verdicts(r)]
    agreement = "" if r.agreement is None else _AGREEMENT % verdicts.pop(0)
    out.append(_REPORT_HEAD % (agreement, *verdicts))
    m, polygons, i = r.module, r.polygons, "\n    "
    _write_instance(out, r.instance, "\n  ", m)
    out.append(_MODULE_HEAD % (*m.dims, m.f, m.fil1_dim))
    _write_rows(out, m.gram.rows, _block_runs((m.gram,)), i)
    out += (',\n    "hodge_slopes": ', _slopes(polygons.hodge, i), ',\n    "n": ')
    _write_rows(out, m.dimension, _n_runs(m), i)
    out += (',\n    "newton_slopes": ', _slopes(polygons.newton, i),
            f',\n    "p": "{m.p}",\n    "phi": ')
    _write_rows(out, m.dimension, _phi_runs(m), i)
    out.append(f',\n    "t_hodge": "{polygons.t_hodge}",\n'
               f'    "t_newton": "{_ratio(polygons.t_newton)}"\n  }}\n}}')


def dump_json(obj) -> str:
    """Canonical byte-stable text of a :class:`Report`, or of a curve
    instance alone (the fuzz failure dump): exactly
    ``json.dumps(d, indent=2, sort_keys=True) + "\\n"`` of the report as a
    dict, or of the instance as a dict.  Any other value, an
    abelian-variety instance too, raises TypeError."""
    out = []
    if isinstance(obj, Report):
        _write_report(out, obj)
    else:
        _write_instance(out, obj, "\n")
    out.append("\n")
    return "".join(out)
