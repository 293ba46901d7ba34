"""Canonical on-disk format for measurement instances.

A single structured-text (JSON) schema with top-level keys:

  dim        system dimension (int)
  g_max      validated coupling range (0, g_max]
  outcomes   list (one entry per outcome) of coefficient records
             {"order": k, "matrix": rows of [re, im] pairs, row-major};
             all-zero coefficients may be omitted
  fmatrix    coefficient records of a raw (not necessarily complete) family,
             for instances that are a bare matrix family rather than a POVM;
             its entries are real (every imaginary part 0).  An instance
             has exactly one of outcomes and fmatrix.
  observable Hermitian matrix, same [re, im] encoding          (optional)
  psi_i      preparation state, list of [re, im] pairs         (optional)
  psi_f      postselection state                               (optional)
  notes      free text                                         (optional)

Serialization is canonical: keys sorted, floats rendered with 17 significant
digits, one top-level key per line.  save -> load -> save is byte-identical.

Loading decodes each matrix and state in one pass: one scan of its rows and
[re, im] pairs, which refuses the first bad row or pair by its JSON path,
one float() list, one array viewed as complex, then one finiteness check
(a state's norm check).  JSON nested past the recursion limit and an integer
past Python's integer-string digit limit are ParseErrors naming the file, as
a syntax error is.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .linalg import HERMITIAN_TOL, UNIT_NORM_TOL, hermitian_bound
from .povm import COMPLETENESS_TOL, PSD_GRID_TOL, ParamPovm, PolyMatrix, ValidationReport
from .povm import valid_g_max, validate

_KNOWN_KEYS = {"dim", "g_max", "outcomes", "fmatrix", "observable", "psi_i", "psi_f", "notes"}
#: the largest coefficient order a file may give.  A family is decoded into a
#: dense list of max(order) + 1 matrices, so one large order in a small file
#: would allocate without bound; the families studied here have degree <= 2.
MAX_ORDER = 64


@dataclass
class InstanceSpec:
    """A named measurement instance: either a POVM or a raw matrix family."""

    name: str
    povm: ParamPovm | None = None
    fmatrix: PolyMatrix | None = None
    observable: np.ndarray | None = None
    psi_i: np.ndarray | None = None
    psi_f: np.ndarray | None = None
    notes: str = ""
    fmatrix_g_max: float = field(default=0.5, repr=False)
    #: povm.validate's report, kept by the loader, which refuses a POVM file on it
    report: ValidationReport | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.povm is None and self.fmatrix is None:
            raise ValidationError("Schema", "instance needs outcomes or fmatrix")
        if self.povm is not None and self.fmatrix is not None:
            raise ValidationError("Schema", "instance has both outcomes and fmatrix")

    @property
    def dim(self) -> int:
        return self.povm.dim if self.povm is not None else self.fmatrix.shape[0]

    @property
    def g_max(self) -> float:
        if self.povm is not None:
            return self.povm.g_max
        return self.fmatrix_g_max


# ---------------------------------------------------------------- encoding


def _encode_matrix(M: np.ndarray) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _encode_vector(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def _encode_coefficients(poly: PolyMatrix) -> list:
    out = []
    for k, c in enumerate(poly.coefficients):
        if np.abs(c).max() == 0.0 and poly.max_degree > 0:
            continue  # zero coefficients are implicit in the sparse encoding
        out.append({"order": k, "matrix": _encode_matrix(c)})
    return out


def instance_to_dict(spec: InstanceSpec) -> dict:
    d: dict = {"dim": spec.dim, "g_max": float(spec.g_max)}
    if spec.povm is not None:
        d["outcomes"] = [_encode_coefficients(e) for e in spec.povm.elements]
    if spec.fmatrix is not None:
        d["fmatrix"] = _encode_coefficients(spec.fmatrix)
    if spec.observable is not None:
        d["observable"] = _encode_matrix(spec.observable)
    if spec.psi_i is not None:
        d["psi_i"] = _encode_vector(spec.psi_i)
    if spec.psi_f is not None:
        d["psi_f"] = _encode_vector(spec.psi_f)
    if spec.notes:
        d["notes"] = spec.notes
    return d


def _render(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        # v + 0.0 squashes -0.0, which would not survive a decode cycle
        return f"{v + 0.0:.17g}"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_render(v[k])}" for k in sorted(v))
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_render(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def canonical_json(d: dict) -> str:
    """Deterministic rendering: sorted keys, one top-level key per line."""
    lines = [f"  {json.dumps(k)}: {_render(d[k])}" for k in sorted(d)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def save_instance(spec: InstanceSpec, path) -> None:
    Path(path).write_text(canonical_json(instance_to_dict(spec)))


# ---------------------------------------------------------------- decoding


def _require(cond: bool, code: str, message: str, context: str | None = None):
    if not cond:
        raise ValidationError(code, message, context)


def _to_float(x: int | float) -> float:
    """float(x), with an integer beyond float range read as +-inf, like Infinity."""
    try:
        return float(x)
    except OverflowError:
        return np.inf if x > 0 else -np.inf


def _pairs(row: list, context: str) -> list:
    """The parts of row's [re, im] pairs, in order; refuses the first that is no number pair."""
    parts: list = []
    for j, pair in enumerate(row):
        # bool subclasses int, and no type subclasses bool
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and isinstance(pair[0], (int, float)) and isinstance(pair[1], (int, float))
                and bool not in (type(pair[0]), type(pair[1]))):
            raise ValidationError("Schema", "expected a [re, im] number pair", f"{context}[{j}]")
        parts += pair
    return parts


def _decode_matrix(data, rows: int, cols: int, context: str) -> np.ndarray:
    """The (rows, cols) matrix that rows of [re, im] pairs encode; a refusal names the first bad entry."""
    _require(isinstance(data, list) and len(data) == rows, "BadShape",
             f"expected {rows} rows", context)
    parts: list = []
    for i, row in enumerate(data):
        if not (isinstance(row, list) and len(row) == cols):  # the message is formatted only on refusal
            raise ValidationError("BadShape", f"expected {cols} entries in row {i}", context)
        parts += _pairs(row, f"{context}[{i}]")
    values = list(map(_to_float, parts))
    _require(all(map(math.isfinite, values)), "BadValue", "non-finite entry", context)
    return np.array(values).view(complex).reshape(rows, cols)


def _decode_coefficients(data, rows: int, cols: int, context: str) -> PolyMatrix:
    _require(isinstance(data, list) and len(data) >= 1, "Schema",
             "expected a nonempty list of coefficient records", context)
    seen: dict[int, np.ndarray] = {}
    for idx, rec in enumerate(data):
        ctx = f"{context}[{idx}]"
        _require(isinstance(rec, dict) and set(rec) == {"order", "matrix"}, "Schema",
                 'expected {"order", "matrix"}', ctx)
        k = rec["order"]
        _require(isinstance(k, int) and not isinstance(k, bool) and k >= 0,
                 "Schema", "order must be a nonnegative integer", ctx)
        _require(k <= MAX_ORDER, "Schema", f"order must be at most {MAX_ORDER}", ctx)
        _require(k not in seen, "Schema", f"duplicate order {k}", ctx)
        seen[k] = _decode_matrix(rec["matrix"], rows, cols, f"{ctx}.matrix")
    C = np.zeros((max(seen) + 1, rows, cols), dtype=complex)
    for k, M in seen.items():
        C[k] = M
    return PolyMatrix(C)


def _decode_state(data, dim: int, context: str) -> np.ndarray:
    _require(isinstance(data, list) and len(data) == dim, "BadShape",
             f"expected {dim} entries", context)
    v = np.array(list(map(_to_float, _pairs(data, context)))).view(complex)
    with np.errstate(over="ignore"):  # an overflowing norm is inf, and is refused
        n = float(np.linalg.norm(v))
    _require(abs(n - 1.0) <= UNIT_NORM_TOL, "BadState", f"state norm {n!r} is not 1", context)
    return v


def dict_to_instance(d: dict, name: str) -> InstanceSpec:
    _require(isinstance(d, dict), "Schema", "top level must be an object", "$")
    unknown = set(d) - _KNOWN_KEYS
    _require(not unknown, "Schema", f"unknown keys {sorted(unknown)}", "$")
    _require("dim" in d and "g_max" in d, "Schema", "dim and g_max are required", "$")
    dim = d["dim"]
    _require(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
             "Schema", "dim must be a positive integer", "dim")
    g_max = d["g_max"]
    _require(isinstance(g_max, (int, float)) and not isinstance(g_max, bool)
             and valid_g_max(_to_float(g_max)), "Schema", "g_max must be positive and finite", "g_max")
    g_max = float(g_max)
    _require("outcomes" in d or "fmatrix" in d, "Schema",
             "need outcomes or fmatrix", "$")
    _require(not ("outcomes" in d and "fmatrix" in d), "Schema",
             "need outcomes or fmatrix, not both", "$")

    povm = report = None
    if "outcomes" in d:
        data = d["outcomes"]
        _require(isinstance(data, list) and len(data) >= 1, "Schema",
                 "outcomes must be a nonempty list", "outcomes")
        elements = tuple(
            _decode_coefficients(entry, dim, dim, f"outcomes[{j}]")
            for j, entry in enumerate(data)
        )
        povm = ParamPovm(elements=elements, g_max=g_max)
        report = validate(povm)
        herm = report.hermiticity_residual
        _require(herm <= HERMITIAN_TOL, "NotHermitian",
                 f"coefficient Hermiticity residual {herm:.3e}", "outcomes")
        comp = float(report.completeness_residuals.max())
        _require(comp <= COMPLETENESS_TOL, "Completeness",
                 f"coefficient-wise completeness residual {comp:.3e}", "outcomes")
        worst = float(report.min_eigenvalues.min())
        _require(math.isfinite(worst), "BadValue",
                 "outcome matrices are not finite on the validation grid", "outcomes")
        _require(worst >= PSD_GRID_TOL, "NotPositive",
                 f"minimum eigenvalue {worst:.3e} on the validation grid", "outcomes")

    fmatrix = None
    if "fmatrix" in d:
        # raw family: row count = dim, column count read from the data
        data = d["fmatrix"]
        _require(isinstance(data, list) and data, "Schema",
                 "fmatrix must be a nonempty list", "fmatrix")
        first = data[0]
        _require(isinstance(first, dict) and "matrix" in first
                 and isinstance(first["matrix"], list) and first["matrix"]
                 and isinstance(first["matrix"][0], list),
                 "Schema", "malformed coefficient record", "fmatrix[0]")
        cols = len(first["matrix"][0])
        _require(cols >= 1, "BadShape", "a raw family needs at least one column", "fmatrix[0]")
        fmatrix = _decode_coefficients(data, dim, cols, "fmatrix")
        # F holds outcome eigenvalues, so it is real; every solve keeps only its real part
        _require(all(not c.imag.any() for c in fmatrix.coefficients), "NotReal",
                 "fmatrix entries must be real", "fmatrix")

    observable = None
    if "observable" in d:
        observable = _decode_matrix(d["observable"], dim, dim, "observable")
        with np.errstate(over="ignore"):  # an overflowing residual or magnitude is inf, and is refused
            res = float(np.abs(observable - observable.conj().T).max())
            bound = hermitian_bound(observable)  # relative above scale 1, as linalg.check_hermitian
            big = float(np.abs(observable).max())
        _require(math.isfinite(res) and res <= bound, "NotHermitian",
                 f"observable Hermiticity residual {res:.3e}", "observable")
        # the bound linalg's diagonal eigenbasis path keeps to
        _require(big < 2.0**256, "BadValue",
                 "observable has an entry of magnitude 2**256 or more", "observable")

    psi_i = _decode_state(d["psi_i"], dim, "psi_i") if "psi_i" in d else None
    psi_f = _decode_state(d["psi_f"], dim, "psi_f") if "psi_f" in d else None
    notes = d.get("notes", "")
    _require(isinstance(notes, str), "Schema", "notes must be a string", "notes")

    return InstanceSpec(
        name=name,
        povm=povm,
        fmatrix=fmatrix,
        observable=observable,
        psi_i=psi_i,
        psi_f=psi_f,
        notes=notes,
        fmatrix_g_max=g_max,
        report=report,
    )


def load_instance(path) -> InstanceSpec:
    """Parse and semantically validate an instance file.

    Syntax errors raise ParseError with file, line and column; nesting too
    deep for the parser and an integer past Python's digit limit raise
    ParseError naming the file.  Semantic violations raise ValidationError
    with a reason code and the JSON path of the offending entry.
    """
    path = Path(path)
    try:
        raw = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: {e}") from e
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except (RecursionError, ValueError) as e:  # nested too deep; an integer past the digit limit
        raise ParseError(f"{path}: {e}") from e
    return dict_to_instance(data, name=path.stem)
