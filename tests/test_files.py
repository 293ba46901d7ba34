from __future__ import annotations

import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklab import cli
from weaklab import files as fl
from weaklab.errors import ParseError, ValidationError
from weaklab.povm import ParamPovm, PolyMatrix
from weaklab.registry import REGISTRY, get_instance

I2 = np.eye(2)
Z = np.diag([1.0, -1.0])


def qubit_linear_spec():
    povm = ParamPovm(
        elements=(PolyMatrix([I2 / 2, Z / 2]), PolyMatrix([I2 / 2, -Z / 2])),
        g_max=0.9,
    )
    return fl.InstanceSpec(
        name="roundtrip",
        povm=povm,
        observable=Z,
        psi_i=np.array([1.0, 1.0]) / np.sqrt(2),
        psi_f=np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)], dtype=complex),
        notes="linear qubit family",
    )


def quad_spec():
    P = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    Q = 0.25 * np.array([[1.0, -2.0, 1.0], [-2.0, 1.0, 1.0], [1.0, 1.0, -2.0]])
    elements = tuple(
        PolyMatrix([np.diag(P[:, j]), np.zeros((3, 3)), np.diag(Q[:, j])])
        for j in range(3)
    )
    return fl.InstanceSpec(
        name="quad", povm=ParamPovm(elements=elements, g_max=0.5)
    )


def fmatrix_spec():
    fam = PolyMatrix([np.array([[1.0, 1.0], [-1.0, -1.0]]), np.eye(2)])
    return fl.InstanceSpec(name="raw", fmatrix=fam, fmatrix_g_max=0.5)


# ------------------------------------------------------------- round trips


@pytest.mark.parametrize("builder", [qubit_linear_spec, quad_spec, fmatrix_spec])
def test_save_load_save_is_byte_identical(tmp_path, builder):
    spec = builder()
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    fl.save_instance(spec, p1)
    loaded = fl.load_instance(p1)
    fl.save_instance(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_preserves_numbers_exactly(tmp_path):
    spec = qubit_linear_spec()
    path = tmp_path / "inst.json"
    fl.save_instance(spec, path)
    loaded = fl.load_instance(path)
    assert loaded.name == "inst"
    npt.assert_array_equal(loaded.observable, spec.observable)
    npt.assert_array_equal(loaded.psi_i, spec.psi_i)
    npt.assert_array_equal(loaded.psi_f, spec.psi_f)
    for a, b in zip(loaded.povm.elements, spec.povm.elements):
        assert a.max_degree == b.max_degree
        for k in range(a.max_degree + 1):
            npt.assert_array_equal(a.coefficients[k], b.coefficients[k])
    assert loaded.povm.g_max == spec.povm.g_max
    assert loaded.notes == spec.notes


def test_seventeen_digit_floats_survive(tmp_path):
    # 0.1 and friends have no short exact decimal form; %.17g keeps the bits
    povm = ParamPovm(
        elements=(
            PolyMatrix([I2 * 0.1, Z * (1 / 3)]),
            PolyMatrix([I2 * 0.9, -Z * (1 / 3)]),
        ),
        g_max=0.25,
    )
    spec = fl.InstanceSpec(name="digits", povm=povm)
    path = tmp_path / "digits.json"
    fl.save_instance(spec, path)
    loaded = fl.load_instance(path)
    assert loaded.povm.elements[0].coefficients[0][0, 0] == 0.1
    assert loaded.povm.elements[0].coefficients[1][0, 0] == 1 / 3


def test_canonical_layout(tmp_path):
    spec = qubit_linear_spec()
    path = tmp_path / "layout.json"
    fl.save_instance(spec, path)
    text = path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "{"
    assert lines[-1] == "}"
    keys = [ln.split('"')[1] for ln in lines[1:-1]]
    assert keys == sorted(keys)
    assert text.endswith("\n")


def test_zero_interior_coefficient_is_omitted_but_round_trips(tmp_path):
    spec = quad_spec()
    path = tmp_path / "quad.json"
    fl.save_instance(spec, path)
    data = json.loads(path.read_text())
    orders = [rec["order"] for rec in data["outcomes"][0]]
    assert orders == [0, 2]  # the all-zero order-1 block is not stored
    loaded = fl.load_instance(path)
    npt.assert_array_equal(
        loaded.povm.elements[0].coefficients[1], np.zeros((3, 3))
    )


# ------------------------------------------------------------ parse errors


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "dim": 2,\n  "g_max": oops\n}\n')
    with pytest.raises(ParseError) as err:
        fl.load_instance(path)
    msg = str(err.value)
    assert "broken.json" in msg
    assert ":3:" in msg  # line of the bad token


def test_missing_file_reports_path():
    with pytest.raises(ParseError, match="nowhere.json"):
        fl.load_instance("/nonexistent/nowhere.json")


def deeply_nested(tmp_path):
    """A file whose notes nest 100,000 lists deep: json.loads raises RecursionError."""
    path = tmp_path / "deep.json"
    path.write_text('{"dim": 2, "g_max": 0.5, "notes": ' + "[" * 100_000 + "]" * 100_000 + "}")
    return path


def long_integer(tmp_path):
    """The qubit file with a 5,001-digit integer as its first coefficient entry."""
    data = fl.instance_to_dict(qubit_linear_spec())
    data["outcomes"][0][0]["matrix"][0][0][0] = 0  # a placeholder for the integer's digits
    text = fl.canonical_json(data).replace('"matrix": [[[0,', '"matrix": [[[1' + "0" * 5000 + ",", 1)
    path = tmp_path / "long.json"
    path.write_text(text)
    return path


def test_nesting_past_the_recursion_limit_is_a_parse_error(tmp_path):
    path = deeply_nested(tmp_path)
    with pytest.raises(ParseError, match=r"deep\.json: maximum recursion depth exceeded"):
        fl.load_instance(path)


def test_an_integer_past_the_digit_limit_is_a_parse_error(tmp_path):
    path = long_integer(tmp_path)
    with pytest.raises(ParseError, match=r"long\.json: Exceeds the limit \(\d+ digits\)"):
        fl.load_instance(path)


@pytest.mark.parametrize("write", [deeply_nested, long_integer])
def test_unparsable_depth_or_length_exits_1_without_a_traceback(tmp_path, capsys, write):
    path = write(tmp_path)
    assert cli.main(["validate", "--file", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: ParseError: {path}: ")
    assert captured.err.count("\n") == 1


# ------------------------------------------------------- validation codes


def write_instance(tmp_path, mutate):
    """Serialize a good instance, apply a dict-level mutation, rewrite."""
    path = tmp_path / "case.json"
    fl.save_instance(qubit_linear_spec(), path)
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    return path


def check_code(tmp_path, mutate, code):
    path = write_instance(tmp_path, mutate)
    with pytest.raises(ValidationError) as err:
        fl.load_instance(path)
    assert err.value.code == code
    return err.value


def test_unknown_key_rejected(tmp_path):
    check_code(tmp_path, lambda d: d.update(extra=1), "Schema")


def test_missing_dim_rejected(tmp_path):
    check_code(tmp_path, lambda d: d.pop("dim"), "Schema")


def test_broken_completeness_rejected(tmp_path):
    def mutate(d):
        d["outcomes"][0][0]["matrix"][0][0] = [0.51, 0.0]

    err = check_code(tmp_path, mutate, "Completeness")
    assert "outcomes" in (err.context or "")


def test_nonhermitian_coefficient_rejected(tmp_path):
    def mutate(d):
        d["outcomes"][0][1]["matrix"][0][1] = [0.3, 0.0]

    check_code(tmp_path, mutate, "NotHermitian")


def test_nonhermitian_observable_rejected(tmp_path):
    def mutate(d):
        d["observable"][0][1] = [1.0, 0.0]

    check_code(tmp_path, mutate, "NotHermitian")


ROTATED = Path(__file__).resolve().parent / "data" / "qubit-linear-rotated.json"


def scaled_observable(tmp_path, scale, asymmetry=0.0):
    """The rotated qubit file with its observable times scale, plus asymmetry on entry (0, 1)."""
    data = json.loads(ROTATED.read_text())
    data["observable"] = [[[scale * re, scale * im] for re, im in row] for row in data["observable"]]
    data["observable"][0][1][0] += asymmetry
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("exponent", [14, 20, 40])
def test_observable_hermiticity_is_relative_to_its_scale(tmp_path, exponent, capsys):
    # a float-rotated observable's residual is about 2e-17 times its scale: an absolute
    # 1e-12 refused it from a scale near 1e4 on
    path = scaled_observable(tmp_path, 2.0**exponent)
    spec = fl.load_instance(path)
    npt.assert_array_equal(spec.observable, fl.load_instance(ROTATED).observable * 2.0**exponent)
    assert cli.main(["validate", "--file", str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("scale", [1.0, 2.0**20, 2.0**40])
def test_an_asymmetric_observable_is_still_refused(tmp_path, scale):
    # an asymmetry of 1e-6 relative to the observable's scale, far above the 1e-12 forgiven
    with pytest.raises(ValidationError) as err:
        fl.load_instance(scaled_observable(tmp_path, scale, asymmetry=1e-6 * scale))
    assert (err.value.code, err.value.context) == ("NotHermitian", "observable")
    assert re.search(r"observable Hermiticity residual \d\.\d{3}e[+-]\d\d$", str(err.value))


def test_negative_family_rejected(tmp_path):
    def mutate(d):
        # flip the linear terms so E_- = (1 - 2g)/2-ish goes negative wide
        # of the validity range: scale the order-1 blocks by 3
        for outcome in d["outcomes"]:
            for rec in outcome:
                if rec["order"] == 1:
                    for row in rec["matrix"]:
                        for pair in row:
                            pair[0] *= 3.0

    check_code(tmp_path, mutate, "NotPositive")


def test_overflowing_coupling_range_rejected(tmp_path):
    # with g_max 1e308, F(g) overflows on the validation grid and its minimum
    # eigenvalue is NaN; the refusal raises no RuntimeWarning (an error here)
    def mutate(d):
        d["g_max"] = 1e308
        for outcome in d["outcomes"]:
            for rec in outcome:
                if rec["order"] == 1:
                    for row in rec["matrix"]:
                        for pair in row:
                            pair[0] *= 4.0  # +-1/2 -> +-2

    err = check_code(tmp_path, mutate, "BadValue")
    assert "not finite" in str(err)


@pytest.mark.parametrize("sign", [1, -1])
def test_integer_beyond_float_range_is_refused_like_infinity(tmp_path, sign):
    # float() of such an integer raises OverflowError; the loader reads it as
    # +-inf, which every field already refuses with a ValidationError
    huge = sign * 10**400
    err = check_code(tmp_path, lambda d: d.update(g_max=huge), "Schema")
    assert err.context == "g_max"

    def mutate(d):
        d["observable"][0][0] = [huge, 0]

    err = check_code(tmp_path, mutate, "BadValue")
    assert err.context == "observable"


def test_wrong_matrix_shape_rejected(tmp_path):
    def mutate(d):
        d["observable"] = [[[1.0, 0.0]]]

    check_code(tmp_path, mutate, "BadShape")


def test_unnormalized_state_rejected(tmp_path):
    def mutate(d):
        d["psi_i"] = [[1.0, 0.0], [1.0, 0.0]]

    check_code(tmp_path, mutate, "BadState")


@pytest.mark.parametrize("excess, accepted", [(9e-11, True), (1.1e-10, False)])
def test_loaded_state_norm_is_within_1e_10_of_one(tmp_path, excess, accepted):
    # literal bounds on both sides of the unit-norm tolerance, 1e-10
    def mutate(d):
        d["psi_i"] = [[1.0 + excess, 0.0], [0.0, 0.0]]

    if accepted:
        assert fl.load_instance(write_instance(tmp_path, mutate)).psi_i.tolist() == [1.0 + excess, 0.0]
    else:
        check_code(tmp_path, mutate, "BadState")


def test_nonnumeric_entry_rejected(tmp_path):
    def mutate(d):
        d["observable"][0][0] = ["x", 0.0]

    check_code(tmp_path, mutate, "Schema")


def test_instance_needs_some_family(tmp_path):
    def mutate(d):
        d.pop("outcomes")

    check_code(tmp_path, mutate, "Schema")


def test_instance_with_outcomes_and_fmatrix_rejected(tmp_path):
    raw = fl.instance_to_dict(fmatrix_spec())
    err = check_code(tmp_path, lambda d: d.update(fmatrix=raw["fmatrix"]), "Schema")
    assert err.context == "$"
    with pytest.raises(ValidationError) as err:
        fl.InstanceSpec(name="both", povm=qubit_linear_spec().povm, fmatrix=fmatrix_spec().fmatrix)
    assert err.value.code == "Schema"


def test_complex_fmatrix_rejected(tmp_path):
    path = tmp_path / "raw.json"
    fl.save_instance(fmatrix_spec(), path)
    data = json.loads(path.read_text())
    data["fmatrix"][1]["matrix"][0][1] = [1.0, 1.0]
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError) as err:
        fl.load_instance(path)
    assert err.value.code == "NotReal"
    assert err.value.context == "fmatrix"
    # a negative zero imaginary part is still real
    data["fmatrix"][1]["matrix"][0][1] = [1.0, -0.0]
    path.write_text(json.dumps(data))
    assert fl.load_instance(path).fmatrix.max_degree == 1


def test_coefficient_order_is_bounded(tmp_path):
    def set_order(k):
        def mutate(d):
            for outcome in d["outcomes"]:
                outcome[1]["order"] = k  # each outcome's linear record

        return mutate

    path = write_instance(tmp_path, set_order(fl.MAX_ORDER))
    assert fl.load_instance(path).povm.max_degree == fl.MAX_ORDER
    err = check_code(tmp_path, set_order(fl.MAX_ORDER + 1), "Schema")
    assert err.context == "outcomes[0][1]"
    assert str(err).endswith(f"order must be at most {fl.MAX_ORDER}")


BIG = [1e308, 0]
C0 = ("outcomes", 0, 0, "matrix")  # order-0 coefficient of outcome 0
C1 = ("outcomes", 1, 0, "matrix")


@pytest.mark.parametrize(
    "entries, code",
    [
        # C - C^H overflows in the Hermiticity residual
        ({(*C0, 0, 1): BIG, (*C0, 1, 0): [-1e308, 0]}, "NotHermitian"),
        # the coefficient-wise sum over outcomes overflows
        ({(*C0, 0, 0): BIG, (*C1, 0, 0): BIG}, "Completeness"),
        ({("observable", 0, 1): BIG, ("observable", 1, 0): [-1e308, 0]}, "NotHermitian"),
        # |entry| overflows too, so the relative bound is inf: the inf residual is still refused
        ({("observable", 0, 1): [1.3e308, 1.3e308], ("observable", 1, 0): [-1.3e308, -1.3e308]},
         "NotHermitian"),
        # Hermitian, but |entry| overflows: refused by the magnitude bound
        ({("observable", 0, 1): [1.3e308, 1.3e308], ("observable", 1, 0): [1.3e308, -1.3e308]},
         "BadValue"),
        ({("psi_i", 0): [1e308, 1e308]}, "BadState"),
    ],
)
def test_entries_near_float_max_are_refused_without_warnings(tmp_path, entries, code):
    # an overflow RuntimeWarning is an error in this suite
    def mutate(d):
        for path, value in entries.items():
            node = d
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value

    check_code(tmp_path, mutate, code)


# ------------------------------------------------------------ loader fuzz

EXPORTS = [json.loads(fl.canonical_json(fl.instance_to_dict(get_instance(n)))) for n in REGISTRY]
EXTREMES = [1e308, -1e308, 1e300, math.nan, math.inf, -math.inf, 5e-324, -0.0, 10**400, -(10**400)]
NUMBERS = st.sampled_from(EXTREMES) | st.floats() | st.integers()
VALUES = st.recursive(
    NUMBERS | st.sampled_from([True, None, "x", "", [], {}, [[]], [1e308, 1e308]]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["order", "matrix", "x"]), inner, max_size=2),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """(path, value) of every node below a JSON document's root."""
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,), child
        yield from _paths(child, prefix + (key,))


def _scaled(node, factor):
    """node with every number multiplied by factor; an int too large for a float is kept."""
    if isinstance(node, list):
        return [_scaled(x, factor) for x in node]
    if isinstance(node, dict):
        return {k: _scaled(v, factor) for k, v in node.items()}
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        try:
            return node * factor
        except OverflowError:
            return node
    return node


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_loader_fuzz_raises_only_its_own_errors(data):
    """A mutated registry export loads or raises ParseError/ValidationError, with no warning.

    A mutation replaces, deletes or appends a node, scales every number
    below one, or sets one number, often to an extreme.
    """
    doc = copy.deepcopy(data.draw(st.sampled_from(EXPORTS)))
    for _ in range(data.draw(st.integers(1, 3))):
        action = data.draw(st.sampled_from(["number", "replace", "scale", "delete", "append"]))
        fits = {"number": _is_number, "append": lambda x: isinstance(x, list)}.get(action)
        paths = [p for p, x in _paths(doc) if fits is None or fits(x)]
        if not paths:
            continue
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if action == "number":
            parent[key] = data.draw(NUMBERS)
        elif action == "replace":
            parent[key] = copy.deepcopy(data.draw(VALUES))
        elif action == "scale":
            factor = data.draw(st.sampled_from([1e300, 1e308, -1e308, 1e-300, 0.0, math.nan]))
            parent[key] = _scaled(parent[key], factor)
        elif action == "delete":
            del parent[key]
        else:
            parent[key].append(copy.deepcopy(data.draw(VALUES)))
    try:
        fl.dict_to_instance(doc, "fuzz")
    except (ParseError, ValidationError):
        pass


# ------------------------------------------------ decoder against its spec


ZERO = st.sampled_from([0, 0.0, -0.0])
REAL = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**70), 2**70) | ZERO
#: observable entries: below the loader's 2**256 magnitude bound
SMALL = st.floats(-1e70, 1e70) | st.integers(-(2**64), 2**64) | ZERO


@st.composite
def _hermitian(draw, dim):
    """A Hermitian observable as rows of pairs: each (j, i) entry mirrors (i, j) exactly."""
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = [draw(SMALL), draw(ZERO)]
        for j in range(i + 1, dim):
            re, im = draw(SMALL), draw(SMALL)
            rows[i][j], rows[j][i] = [re, im], [re, -im]
    return rows


@st.composite
def _unit_state(draw, dim):
    """A unit vector of pairs: a signed basis vector, or drawn entries scaled to norm 1."""
    if draw(st.booleans()):
        k = draw(st.integers(0, dim - 1))
        one = draw(st.sampled_from([1, 1.0, -1, -1.0]))
        return [[one if i == k else draw(ZERO), draw(ZERO)] for i in range(dim)]
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 * dim, max_size=2 * dim))
    norm = math.sqrt(sum(x * x for x in parts))
    if norm < 0.1:
        parts, norm = [1.0] + [0.0] * (2 * dim - 1), 1.0
    return [[parts[2 * i] / norm, parts[2 * i + 1] / norm] for i in range(dim)]


def _records(draw, matrices):
    """Coefficient records for {order: matrix}, in a drawn order."""
    recs = [{"order": k, "matrix": m} for k, m in matrices.items()]
    return draw(st.permutations(recs))


@st.composite
def _povm_outcomes(draw, dim):
    """A diagonal family complete order by order, positive on (0, 0.1], plus a
    Hermitian order-1 coupling of entries (0, 1) that cancels between outcomes 0 and 1."""
    n_out = draw(st.integers(2, 3))
    p = [[draw(st.floats(0.2, 0.3)) for _ in range(dim)] for _ in range(n_out - 1)]
    q = [[draw(st.floats(-0.5, 0.5)) for _ in range(dim)] for _ in range(n_out - 1)]
    p.append([1.0 - sum(col) for col in zip(*p)])
    q.append([-sum(col) for col in zip(*q)])
    c = [draw(st.floats(-0.35, 0.35)), draw(st.floats(-0.35, 0.35))] if dim > 1 else None

    def diag(values, j, order):
        rows = [[[draw(ZERO), draw(ZERO)] for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            rows[i][i] = [values[i], draw(ZERO)]
        if order == 1 and c is not None and j < 2:
            sign = 1 if j == 0 else -1
            rows[0][1] = [sign * c[0], sign * c[1]]
            rows[1][0] = [sign * c[0], -sign * c[1]]
        return rows

    return [_records(draw, {0: diag(p[j], j, 0), 1: diag(q[j], j, 1)}) for j in range(n_out)]


@st.composite
def _fmatrix(draw, dim):
    """A raw family: real entries, any finite value, orders drawn from 0 to 4."""
    cols = draw(st.integers(1, 3))
    orders = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    return _records(draw, {
        k: [[[draw(REAL), draw(ZERO)] for _ in range(cols)] for _ in range(dim)] for k in orders
    })


@st.composite
def valid_instances(draw):
    dim = draw(st.integers(1, 3))
    d = {"dim": dim, "g_max": draw(st.sampled_from([0.1, 0.05]))}
    if draw(st.booleans()):
        d["outcomes"] = draw(_povm_outcomes(dim))
    else:
        d["fmatrix"] = draw(_fmatrix(dim))
    if draw(st.booleans()):
        d["observable"] = draw(_hermitian(dim))
    for key in ("psi_i", "psi_f"):
        if draw(st.booleans()):
            d[key] = draw(_unit_state(dim))
    return d


def _pair_paths(d):
    """The path of every [re, im] pair in an instance dict."""
    for key, recs in [("fmatrix", d.get("fmatrix", []))] + [
        (("outcomes", j), recs) for j, recs in enumerate(d.get("outcomes", []))
    ]:
        prefix = key if isinstance(key, tuple) else (key,)
        for r, rec in enumerate(recs):
            for i, row in enumerate(rec["matrix"]):
                yield from (prefix + (r, "matrix", i, k) for k in range(len(row)))
    for i, row in enumerate(d.get("observable", [])):
        yield from (("observable", i, k) for k in range(len(row)))
    for key in ("psi_i", "psi_f"):
        yield from ((key, i) for i in range(len(d.get(key, []))))


def _hex(arrays):
    """Each array as (shape, float.hex of each real and imaginary part), -0.0 kept, or None."""
    return [
        None if a is None else (a.shape, [x.hex() for x in np.ascontiguousarray(a).view(float).ravel().tolist()])
        for a in arrays
    ]


def _bits(spec):
    """Every decoded array of spec, as _hex gives it."""
    arrays = [e.coefficients for e in spec.povm.elements] if spec.povm else [spec.fmatrix.coefficients]
    return _hex(arrays + [spec.observable, spec.psi_i, spec.psi_f])


def _expected_bits(d):
    """_bits of the instance d encodes: each array is np.array(parts, dtype=float).view(complex)."""
    dim = d["dim"]

    def array(pairs):
        return np.array([x for pair in pairs for x in pair], dtype=float).view(complex)

    def family(recs, cols):
        C = np.zeros((max(r["order"] for r in recs) + 1, dim, cols), dtype=complex)
        for r in recs:
            C[r["order"]] = array(sum(r["matrix"], [])).reshape(dim, cols)
        return PolyMatrix(C).coefficients

    if "outcomes" in d:
        arrays = [family(recs, dim) for recs in d["outcomes"]]
    else:
        arrays = [family(d["fmatrix"], len(d["fmatrix"][0]["matrix"][0]))]
    arrays.append(array(sum(d["observable"], [])).reshape(dim, dim) if "observable" in d else None)
    arrays += [array(d[key]) if key in d else None for key in ("psi_i", "psi_f")]
    return _hex(arrays)


def _decode(d):
    """dict_to_instance's arrays, or its refusal as (code, context, message)."""
    try:
        return _bits(fl.dict_to_instance(d, "decoded"))
    except ValidationError as err:
        return err.code, err.context, str(err)


def _refusal(code, context, message):
    return code, context, str(ValidationError(code, message, context))


def _context(path):
    """The JSON path the loader names for a key path, as outcomes[0][1].matrix[0][2]."""
    text = path[0]
    for key in path[1:]:
        text += f".{key}" if isinstance(key, str) else f"[{key}]"
    return text


MUTATIONS = {
    "bool": lambda pair: [True, pair[1]],
    "string": lambda pair: [pair[0], "0"],
    "tuple": tuple,
    "triple": lambda pair: [*pair, 0.0],
    "nan": lambda pair: [math.nan, pair[1]],
    "inf": lambda pair: [pair[0], math.inf],
    "-inf": lambda pair: [-math.inf, pair[1]],
    "huge int": lambda pair: [pair[0], -(10**400)],
}


def _expected(d, doc, path, mutation):
    """What dict_to_instance gives for doc: the valid instance d, mutated at the pair path."""
    if mutation == "tuple":
        return _expected_bits(d)  # a tuple pair reads as a list pair
    if mutation in ("bool", "string", "triple"):
        return _refusal("Schema", _context(path), "expected a [re, im] number pair")
    state = path[0] in ("psi_i", "psi_f")
    if mutation != "short row":  # a non-finite part
        if state:
            norm = "nan" if mutation == "nan" else "inf"
            return _refusal("BadState", path[0], f"state norm {norm} is not 1")
        return _refusal("BadValue", _context(path[:-2]), "non-finite entry")
    if state:
        return _refusal("BadShape", path[0], f"expected {d['dim']} entries")
    row = path[-2]
    cols = len(d["fmatrix"][0]["matrix"][0]) if path[0] == "fmatrix" else d["dim"]
    if path[:-1] != ("fmatrix", 0, "matrix", 0):
        return _refusal("BadShape", _context(path[:-2]), f"expected {cols} entries in row {row}")
    # the short row is the one fmatrix[0] reads its column count from
    if cols == 1:
        return _refusal("BadShape", "fmatrix[0]", "a raw family needs at least one column")
    if d["dim"] > 1:
        return _refusal("BadShape", "fmatrix[0].matrix", f"expected {cols - 1} entries in row 1")
    if len(d["fmatrix"]) > 1:
        return _refusal("BadShape", "fmatrix[1].matrix", f"expected {cols - 1} entries in row 0")
    return _expected_bits(doc)  # accepted, with the shortened row


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(valid_instances(), st.data())
def test_decoder_reads_pairs_bit_for_bit_and_names_the_first_bad_entry(d, data):
    """A valid dict decodes to its parts' bits, -0.0 kept; each mutation of one pair or row
    gives its own outcome."""
    assert _decode(d) == _expected_bits(d)
    path = data.draw(st.sampled_from(list(_pair_paths(d))))
    for mutation in [*MUTATIONS, "short row"]:
        doc = copy.deepcopy(d)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if mutation == "short row":  # a matrix row, or a state, one entry short
            del parent[-1]
        else:
            parent[path[-1]] = MUTATIONS[mutation](parent[path[-1]])
        assert _decode(doc) == _expected(d, doc, path, mutation), mutation
