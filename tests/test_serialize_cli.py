import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdelab import (cli, dynamics, geometry, homoclinic, integrators, orbits,
                    serialize, spectral, verify)


# ----------------------------------------------------------------------
# serialization

def test_trajectory_csv_roundtrip_columns():
    cfg = integrators.StepperConfig(method="rk4", dt=1e-2)
    tr = integrators.integrate(np.array([1.0, 0.0, 0.3, 0.35]), 0.5, cfg)
    text = serialize.trajectory_to_csv(tr)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["t", "u", "v", "a", "b", "H"]
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    np.testing.assert_array_equal(data[:, 0], tr.times)
    np.testing.assert_array_equal(data[:, 1:5], tr.states)
    np.testing.assert_array_equal(data[:, 5], tr.energy_series)


def test_field_json_roundtrip():
    f = spectral.cutoff_test_pair(0.2, K=16)
    doc = serialize.field_to_json(f)
    assert doc["schema"] == "cde-lab/1"
    clone = serialize.field_from_json(json.loads(serialize.dumps(doc)))
    np.testing.assert_array_equal(clone.u_coeffs, f.u_coeffs)
    # the document holds eigenbasis views of the stored (a, b), which the
    # reader merges back into (a, b) and packs: the clone's views match to
    # 4 ulp of the spinor tables' largest entry (measured 5.6e-17 on 0.24)
    tables = np.stack([doc["z_plus_coeffs"], doc["z_minus_coeffs"]])
    views = np.stack([clone.z_plus, clone.z_minus])
    defect = np.max(np.abs(np.stack([views.real, views.imag], -1) - tables))
    assert defect <= 4 * np.spacing(np.max(np.abs(tables)))
    assert clone.epsilon == f.epsilon


def test_field_json_rejects_unknown_schema():
    with pytest.raises(ValueError):
        serialize.field_from_json({"schema": "other/9"})


@pytest.mark.parametrize("eps", [float("nan"), 0.0, -0.1, float("inf")])
def test_field_json_rejects_a_bad_epsilon(eps):
    doc = serialize.field_to_json(spectral.cutoff_test_pair(0.2, K=16))
    doc["epsilon"] = eps
    with pytest.raises(ValueError, match=r"epsilon must be in \(0, inf\)"):
        serialize.field_from_json(doc)


def test_field_to_json_writes_float64_tables():
    f = spectral.cutoff_test_pair(0.2, K=16)
    doc = serialize.field_to_json(f)
    for key in ("u_coeffs", "z_plus_coeffs", "z_minus_coeffs"):
        table = doc[key]
        assert type(table) is np.ndarray and table.dtype == np.float64
        assert table.shape == (33, 2) and table.flags.c_contiguous
    assert serialize.dumps(doc) == json.dumps(doc, indent=2, default=tolist)


@pytest.mark.parametrize("key", ["u_coeffs", "z_plus_coeffs",
                                 "z_minus_coeffs"])
@pytest.mark.parametrize("shape", [(33, 2), (16, 2), (17, 3)], ids=str)
def test_field_from_json_rejects_tables_not_2k_plus_1_by_2(key, shape):
    # a K = 8 table has 17 rows; a 33-row one used to reach energy() and
    # fail there on a broadcast
    f = spectral.cutoff_test_pair(0.2, K=8)
    doc = json.loads(serialize.dumps(serialize.field_to_json(f)))
    doc[key] = np.ones(shape).tolist()
    with pytest.raises(ValueError, match=key):
        serialize.field_from_json(doc)


def test_field_grid_csv_header():
    f = spectral.cutoff_test_pair(0.2, K=8)
    rows = list(csv.reader(io.StringIO(serialize.field_grid_to_csv(f))))
    assert rows[0] == ["t", "u", "a", "b"]
    assert len(rows) == 1 + spectral.grid_size(8)


def test_profile_csv_roundtrip():
    t = np.linspace(-2.0, 2.0, 41)
    prof = homoclinic.derived_profile()
    u, _, a, b = prof(t)
    p = geometry.RadialProfile(chart="cylinder", grid=t, u=u, f1=a, f2=b)
    text = serialize.profile_to_csv(p)
    clone = serialize.profile_from_csv(text)
    assert clone.chart == "cylinder"
    np.testing.assert_array_equal(clone.grid, t)
    np.testing.assert_array_equal(clone.u, u)


def test_orbit_record_schema(lyapunov_orbits):
    orbit = lyapunov_orbits[1e-2]
    rec = serialize.orbit_record(orbit, orbits.field_to_orbit(orbit.field),
                                 provenance={"kind": "test"})
    for key in ("schema", "T", "epsilon", "H", "residual", "initial_state",
                "samples", "provenance"):
        assert key in rec
    assert len(rec["samples"][0]) == 5       # t,u,v,a,b


# the writers' two routes: the compiled kernel's write_floats for each
# float64 array, and the stdlib writers, with no kernel
WRITER_ROUTES = (contextlib.nullcontext,
                 lambda: mock.patch.object(integrators, "_flow_kernel",
                                           lambda: None))


class CountingKernel:
    """The compiled kernel, counting its write_floats calls."""

    def __init__(self, lib):
        self.lib, self.calls = lib, 0

    def write_floats(self, *args):
        self.calls += 1
        return self.lib.write_floats(*args)

    def __getattr__(self, name):
        return getattr(self.lib, name)


@pytest.fixture
def kernel(monkeypatch):
    """The writers' kernel, counting its write_floats calls."""
    lib = integrators._flow_kernel()
    if lib is None:
        pytest.skip("no C compiler builds _flow.c")
    counting = CountingKernel(lib)
    monkeypatch.setattr(integrators, "_flow_kernel", lambda: counting)
    return counting


# neighbours of the points where repr's notation changes (1e-4, 1e16) and
# where orjson's did (1e-9, 1e-5)
REDO_EDGES = [float(y) for x in (1e-10, 1e-9, 1e-5, 1e-4, 1e16)
              for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]
# every float json spells specially or that sits at a repr edge
SPECIAL_FLOATS = (float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
                  2.2250738585072014e-308, *REDO_EDGES, np.float64(0.1),
                  np.float64("nan"))
floats = (st.floats() | st.sampled_from(SPECIAL_FLOATS)
          | st.floats().map(np.float64))
float_tables = st.integers(1, 4).flatmap(lambda m: st.lists(
    st.lists(floats, min_size=m, max_size=m)
    | st.tuples(*[floats] * m), max_size=5))
# 1-D and 2-D float64 arrays, C-contiguous or reversed (a strided view)
float_arrays = (st.lists(floats, max_size=6) | float_tables).map(
    lambda x: np.array(x, dtype=float)).flatmap(
    lambda a: st.sampled_from([a, a[::-1]]))
# strs that json escapes or that look like its text, lists that put a None
# beside a NaN, and the str that stands for an array in dumps' json text
ROUTES = ["null", "a null b", "\n" + "ull", "\x7f", [None, float("nan")],
          [float("nan"), None, 1.0], [[1.0, None], [float("nan"), 2.0]],
          serialize._ARRAY]
leaves = (st.none() | st.booleans() | st.integers() | floats | st.text()
          | st.sampled_from(["", "caf\u00e9", "tab\t\"q\"\\", "\U0001f600"])
          | st.lists(floats, max_size=6) | float_tables | float_arrays
          | st.sampled_from(ROUTES))
keys = (st.text() | st.integers() | floats | st.booleans() | st.none()
        | st.sampled_from(["null", "\n" + "ull", "\x7f", serialize._ARRAY]))
documents = st.recursive(
    leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(keys, children, max_size=4)),
    max_leaves=30)


def tolist(o):
    """json's ``default`` under the ``dumps`` contract."""
    if isinstance(o, np.ndarray):
        return o.tolist()
    return json.JSONEncoder().default(o)


@settings(max_examples=150, deadline=None, database=None)
@given(documents)
def test_dumps_equals_json_indent_2(doc):
    for route in WRITER_ROUTES:
        with route():
            assert serialize.dumps(doc) == json.dumps(doc, indent=2,
                                                      default=tolist)


@pytest.mark.parametrize("leaf", ROUTES, ids=ascii)
def test_dumps_takes_every_route(leaf):
    docs = [leaf, [1.5e-7, leaf], {"x": np.array([1e16, np.nan]), "k": leaf}]
    if isinstance(leaf, str):
        docs.append({leaf: 1.5e-7, "x": np.array([1e-5, None])})
    for route in WRITER_ROUTES:
        for doc in docs:
            with route():
                assert serialize.dumps(doc) == json.dumps(doc, indent=2,
                                                          default=tolist)


@pytest.mark.parametrize("n", [1023, 1024, 1025, 2600])
def test_dumps_long_float_tables(n):
    rng = np.random.default_rng(n)
    table = rng.standard_normal((n, 3))
    table[-1, 1] = np.nan
    table[n // 2, 0] = -np.inf
    doc = {"rows": table.tolist(), "flat": table[:, 2].tolist(),
           "array": table, "column": table[:, 2]}
    for route in WRITER_ROUTES:
        with route():
            assert serialize.dumps(doc) == json.dumps(doc, indent=2,
                                                      default=tolist)


@pytest.mark.parametrize("doc", [
    {"x": np.int64(3)}, [1.0, np.int64(3)], [[1.0], [np.int64(3)]],
    {"s": {1.0}}, np.float32(1.0), {(1, 2): 1.0}, {"k": object()},
    [np.zeros(2), object()],
])
def test_dumps_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, indent=2, default=tolist)
    with pytest.raises(TypeError) as got:
        serialize.dumps(doc)
    assert str(got.value) == str(expected.value)


def csv_oracle(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(x)) for x in row])
    return out.getvalue()


@pytest.mark.parametrize("n", [1, 7, 1023, 1024, 1025, 2600])
def test_write_rows_equals_csv_writer(n):
    rng = np.random.default_rng(n)
    m = int(rng.integers(1, 7))
    exponents = rng.integers(-320, 300, (n, m))
    rows = rng.standard_normal((n, m)) * 10.0 ** exponents
    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324,
                2.2250738585072014e-308, *REDO_EDGES]
    rows.flat[rng.integers(0, rows.size, len(specials))] = specials
    header = tuple("c%d" % j for j in range(m))
    for route in WRITER_ROUTES:
        with route():
            assert serialize._csv_table(header, rows) == csv_oracle(header,
                                                                    rows)


def assert_writers_equal_repr(values, width, routes=WRITER_ROUTES):
    # dumps against json of the same floats as a list, and _csv_table against
    # csv.writer of their reprs, on each route
    rows = np.reshape(values, (-1, width))
    header = tuple("c%d" % j for j in range(width))
    json_text = json.dumps({"flat": values.tolist(), "rows": rows.tolist()},
                           indent=2)
    csv_text = csv_oracle(header, rows)
    for route in routes:
        with route():
            assert serialize.dumps({"flat": values, "rows": rows}) == json_text
            assert serialize._csv_table(header, rows) == csv_text


def test_writers_equal_repr_on_random_bit_patterns(kernel):
    # nan and inf included: the compiled route prints the whole table, in one
    # call for the CSV and one per array for the document
    rng = np.random.default_rng(19)
    values = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    assert not np.isfinite(values).all()
    assert_writers_equal_repr(values, 4)
    assert kernel.calls == 3


def test_writers_respell_random_finite_bit_patterns(kernel):
    # the finite floats of the pattern above, on the compiled route alone
    rng = np.random.default_rng(19)
    values = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    assert_writers_equal_repr(values[:len(values) // 4 * 4], 4,
                              routes=[contextlib.nullcontext])
    assert kernel.calls == 3


def powers_of_two():
    x = 2.0 ** np.arange(-1074, 1024)
    return np.concatenate([np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)])


# the floats where Schubfach's digits, or their spelling, could part from
# repr's: every subnormal with t < 2^16 (Java's two-digit rule parts from
# the shortest digits there), every power of two with its neighbours (the
# irregular spacing below each), repr's switches of notation, integers with
# trailing zeros (the exact-integer path) and the ends of the range
PARTING_FLOATS = {
    "subnormals": np.arange(2**16, dtype=np.uint64).view(np.float64),
    "powers of two": powers_of_two(),
    "notation": np.array([
        y for x in (1e-4, 1e16, 9999999999999998.0, 1e15, 2.0**53,
                    2.0**53 + 2, 123456789012345680.0)
        for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]),
    "integers": np.array([float(i * 10**j) for i in range(1, 100)
                          for j in range(16)]),
    "ends": np.array([5e-324, np.finfo(float).max]),
}


@pytest.mark.parametrize("name", PARTING_FLOATS)
def test_writers_equal_repr_where_schubfach_can_part(name, kernel):
    values = PARTING_FLOATS[name]
    assert_writers_equal_repr(np.concatenate([values, -values]), 2)
    assert kernel.calls == 3


def digit_choice(x):
    """Which of to_decimal's candidates in _flow.c spells a normal double x,
    from x's exact rounding interval: with s = floor(x / 10^k) and t = s + 1,
    "sp10" or "tp10" (s's and t's multiples of ten, one digit fewer) alone in
    it, else "s or t alone", else both, "nearer" or an exact "tie"."""
    m, e = math.frexp(abs(x))
    c, q = int(m * 2**53), e - 53               # x = c 2^q
    closer = c == 2**52 and q > -1074
    v, half = Fraction(c) * Fraction(2) ** q, Fraction(2) ** (q - 1)
    lo, hi = v - (half / 2 if closer else half), v + half
    # 10^k <= 2^q, or 3/4 2^q where the lower neighbour is closer
    g = Fraction(2) ** q * (Fraction(3, 4) if closer else 1)
    k = math.floor(math.log10(float(g)))
    k -= Fraction(10) ** k > g
    k += Fraction(10) ** (k + 1) <= g
    ten_k = Fraction(10) ** k

    def inside(d):                              # closed for an even c
        return lo <= d * ten_k <= hi if c % 2 == 0 else lo < d * ten_k < hi

    s = math.floor(v / ten_k)
    upin, wpin = inside(s // 10 * 10), inside(s // 10 * 10 + 10)
    if upin != wpin:
        return "sp10" if upin else "tp10"
    if inside(s) != inside(s + 1):
        return "s or t alone"
    return "tie" if v / ten_k - s == Fraction(1, 2) else "nearer"


def test_writers_equal_repr_on_each_digit_choice(kernel):
    # to_decimal picks its candidate with masks, so each outcome is drawn
    # here by name: random normal bit patterns, and doubles in [2^40, 2^52),
    # where x / 10^k has a small power of two below it and ties are common;
    # 123456789012345.625 and .875 are ties, spelled ...345.62 and ...345.88
    rng = np.random.default_rng(47)
    pool = [123456789012345.625, 123456789012345.875]
    pool += rng.integers(2**52, 0x7ff << 52, 400, np.uint64).view(float).tolist()
    pool += [math.ldexp(float(c), int(q)) for q, c in
             zip(rng.integers(-12, 0, 1000), rng.integers(2**52, 2**53, 1000))]
    arms = {}
    for x in pool:
        if not (x.is_integer() and x < 2**53):  # not the exact-integer path
            arms.setdefault(digit_choice(x), []).append(x)
    assert digit_choice(pool[0]) == digit_choice(pool[1]) == "tie"
    assert sorted(arms) == ["nearer", "s or t alone", "sp10", "tie", "tp10"]
    assert min(map(len, arms.values())) >= 20, {a: len(v) for a, v in
                                                 arms.items()}
    values = np.array([x for xs in arms.values() for x in xs])
    assert_writers_equal_repr(np.concatenate([values, -values]), 1)
    assert kernel.calls == 3


def text_bound(a, depth):
    # _flow.c's header: 24 bytes a float, with v values in r rows
    v, r = a.size, len(a) if a.ndim == 2 else 0
    if depth < 0:
        return 25 * v + r
    return v * (2 * depth + 30) + r * (4 * depth + 9) + 2 * depth + 3


@pytest.mark.parametrize("x", [-2.2250738585072014e-308,
                               -1.7976931348623157e+308, -np.inf])
def test_write_floats_never_writes_past_its_bound(x, kernel):
    # the longest spellings, as CSV and as json at depth 3: the text is the
    # stdlib's, and every byte past the documented bound is intact
    lines = [",".join([repr(x)] * 3)] * 500
    cases = [(np.full((500, 3), x), -1, "\n".join(lines) + "\n")]
    for a in (np.full((500, 3), x), np.full(700, x), np.full((2, 0), x)):
        text = json.dumps(a.tolist(), indent=2)
        cases.append((a, 3, text.replace("\n", "\n" + " " * 6)))
    for a, depth, text in cases:
        bound = text_bound(a, depth)
        out = np.full(bound + 64, 255, np.uint8)
        n, m = a.shape if a.ndim == 2 else (len(a), -1)
        end = kernel.lib.write_floats(a, n, m, depth, kernel.pow10_table, out)
        assert bytes(out[:end]).decode() == text
        assert end <= bound and (out[bound:] == 255).all()
        assert text_bound(a, depth) == serialize._text_bound(a, depth)


def test_dumps_a_str_that_is_the_array_marker(kernel):
    # such a str sends the document to json.dumps with tolist
    mark = serialize._ARRAY
    docs = [{mark: np.ones(2), "k": mark, "x": np.eye(2)},
            [np.zeros(3), mark], {mark: 1.5, "a": np.array([1e-7])}]
    for doc in docs:
        assert serialize.dumps(doc) == json.dumps(doc, indent=2,
                                                  default=tolist)
    assert kernel.calls == 0


def test_writers_keep_number_like_text_in_strs(kernel):
    s = "1e-7 0.00001 \"q\" \\ [1],[2] e5"
    doc = {s: [0.00001234, -0.00001, 1e16], "k": s, "q": '"1e-7" \\',
           "rows": np.array([[0.00001234, -0.00001, 1e16]])}
    assert serialize.dumps(doc) == json.dumps(doc, indent=2, default=tolist)
    assert kernel.calls == 1


@pytest.mark.parametrize("shape, header, text", [
    ((0, 6), tuple("tuvabH"), "t,u,v,a,b,H\n"), ((3, 0), ("a",), "a\n\n\n\n")])
def test_csv_table_without_rows_or_columns(shape, header, text):
    for route in WRITER_ROUTES:
        with route():
            assert serialize._csv_table(header, np.zeros(shape)) == text
    assert csv_oracle(header, np.zeros(shape)) == text


@pytest.mark.parametrize("doc", [
    1e-05, 1.5e-07, 1.234e-05,          # a float at the text's first, last byte
    ["s.00001 e5 \" \\", 1.5e-07, 1.234e-05, 1e16],     # a number per band
], ids=repr)
def test_writers_at_the_ends_and_after_a_str(doc, kernel):
    # the document, then with its floats as one array
    as_array = (np.array([doc]) if isinstance(doc, float)
                else [doc[0], np.array(doc[1:])])
    for d in (doc, as_array):
        for route in WRITER_ROUTES:
            with route():
                assert serialize.dumps(d) == json.dumps(d, indent=2,
                                                        default=tolist)
    assert kernel.calls == 1


def test_writers_equal_repr_in_every_band():
    # orjson's notation differed from repr's for 1e-9 <= |x| < 1e-5, for
    # 1e-5 <= |x| < 1e-4 and for |x| >= 1e16: draw m * 10^k in [10^e, 10^(e+1))
    # with m of 1 to 17 digits, of both signs, in each band
    rng = np.random.default_rng(21)
    values = [10.00001, *REDO_EDGES]
    for e in [*range(-9, -4), *range(16, 308)]:
        for digits in range(1, 18):
            m = int(rng.integers(10 ** (digits - 1), 10 ** digits))
            values.append(float(f"{m}e{e - digits + 1}"))
    values += [-x for x in values]
    mag = np.abs(values)
    for lo, hi in ((1e-9, 1e-5), (1e-5, 1e-4), (1e16, np.inf)):
        assert np.count_nonzero((mag >= lo) & (mag < hi)) >= 2 * 17
    assert_writers_equal_repr(np.array(values), 1)
    for route in WRITER_ROUTES:
        with route():
            assert serialize.dumps(values) == json.dumps(values, indent=2)


def test_diagram_csv():
    diagram = {"delta0": homoclinic.DELTA0,
               "rows": [{"epsilon": 0.2, "T": 5.0, "delta_eps": 0.86,
                         "gap": 0.02, "converged": True}]}
    rows = list(csv.reader(io.StringIO(serialize.diagram_to_csv(diagram))))
    assert rows[0] == ["epsilon", "T", "delta_eps", "gap", "converged"]
    assert rows[1][4] == "1"


# ----------------------------------------------------------------------
# CLI

def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_importing_the_cli_loads_no_scipy():
    # the import itself writes nothing: stdout holds only the print below
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, cdelab, cdelab.cli; print('scipy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert (run.stdout, run.stderr) == ("False\n", "")


def test_a_ground_state_solve_loads_no_scipy():
    # the spectral Newton step runs the package's own GMRES, and the family
    # and the diagram take P+'s spectrum and delta0 in closed form
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["ground-state", "--epsilon", "0.05"],
                 ["continuation", "--eps-grid", "0.2,0.3"],
                 ["lyapunov", "--amplitudes", "1e-2"]):
        code = ("import contextlib, io, sys\n"
                "from cdelab import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = cli.main({argv!r})\n"
                "print(code, sorted(m for m in sys.modules\n"
                "                   if m.split('.')[0] == 'scipy'))")
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True)
        assert (run.stdout, run.stderr) == ("0 []\n", ""), argv


def test_cli_records_load_no_orjson():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import contextlib, io, sys\n"
            "from cdelab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['integrate', '--state', '1,0,0.3,0.35',\n"
            "                       '--t-final', '0.1', '--format', 'json']),\n"
            "             cli.main(['ground-state', '--epsilon', '0.2'])]\n"
            "print(codes, 'orjson' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert (run.stdout, run.stderr) == ("[0, 0] False\n", "")


def test_cli_main_repeated_calls_match_fresh_parsers(capsys):
    argvs = [["equilibria"], ["homoclinic"], ["equilibria", "--format", "csv"],
             ["integrate", "--state", "1,0,0.3,0.35", "--t-final", "0.05",
              "--dt", "0.01", "--method", "rk4", "--format", "json"]]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(argv, capsys))
    repeated = [run_cli(argv, capsys) for argv in argvs]
    assert repeated == fresh
    assert cli.build_parser.cache_info().misses == 1
    code, _, err = run_cli(["integrate", "--t-final", "1"], capsys)
    assert code == 2 and "--state" in err
    assert run_cli(argvs[0], capsys) == fresh[0]


INTEGRATE_JSON = ["integrate", "--state", "1,0,0.3,0.35", "--dt", "0.01",
                  "--format", "json", "--t-final"]
JSON_COMMANDS = [
    ["equilibria"],
    INTEGRATE_JSON + ["0.3", "--method", "rk4"],
    INTEGRATE_JSON + ["-0.3", "--method", "rk4"],
    INTEGRATE_JSON + ["0.3"],
    INTEGRATE_JSON + ["-0.3"],
    ["ground-state", "--epsilon", "0.2"],
    ["ground-state", "--epsilon", "0.025"],
    ["continuation", "--eps-grid", "0.2", "--format", "json"],
    ["homoclinic"],
    ["homoclinic", "--paper-constants"],
    ["lyapunov", "--amplitudes", "1e-2"],
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=" ".join)
def test_cli_json_output_is_canonical(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def float_arrays(doc):
    """The number of 1-D and 2-D float64 ndarrays in a document."""
    if isinstance(doc, dict):
        return sum(map(float_arrays, doc.values()))
    if isinstance(doc, (list, tuple)):
        return sum(map(float_arrays, doc))
    return int(type(doc) is np.ndarray and doc.dtype == np.float64
               and doc.ndim in (1, 2))


@pytest.mark.parametrize("argv", [
    INTEGRATE_JSON + ["0.3"], INTEGRATE_JSON[:-3] + ["--t-final", "0.3"],
    ["ground-state", "--epsilon", "0.025"],
    ["lyapunov", "--amplitudes", "1e-2"],
], ids=" ".join)
def test_cli_records_take_the_compiled_route(argv, kernel, monkeypatch,
                                             capsys):
    # each float64 array of a record, a ground state's strided samples
    # included, takes write_floats once; a CSV table takes it once
    counts, dumps = [], serialize.dumps
    monkeypatch.setattr(serialize, "dumps",
                        lambda doc: counts.append(float_arrays(doc))
                        or dumps(doc))
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert kernel.calls == (sum(counts) if counts else 1)


def test_cli_ground_state_record_matches_recomputed_record(capsys):
    code, out, _ = run_cli(["ground-state", "--epsilon", "0.05"], capsys)
    assert code == 0
    result = spectral.ground_state(0.05)
    tr = orbits.field_to_orbit(result.field)
    rec = json.loads(out)
    assert rec["initial_state"] == result.initial_state.tolist()
    assert rec["H"] == result.hamiltonian
    assert rec["residual"] == result.merit
    stride = max(1, len(tr) // 400)
    samples = [[float(tr.times[i])] + [float(x) for x in tr.states[i]]
               for i in range(0, len(tr), stride)]
    assert rec["samples"] == samples
    rec["field"] = serialize.field_to_json(result.field)
    assert json.dumps(rec, indent=2, default=tolist) + "\n" == out


def test_cli_equilibria(capsys):
    code, out, _ = run_cli(["equilibria"], capsys)
    assert code == 0
    doc = json.loads(out)
    energies = [e["H"] for e in doc["equilibria"]]
    assert energies == [0.0, -0.125, -0.125]


def test_cli_equilibria_csv(capsys):
    code, out, _ = run_cli(["equilibria", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "name,u,v,a,b,H"


def test_cli_integrate_csv(capsys):
    code, out, _ = run_cli(["integrate", "--state", "1,0,0.3,0.35",
                            "--t-final", "0.2", "--dt", "0.01",
                            "--method", "rk4"], capsys)
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "t,u,v,a,b,H"
    assert len(rows) == 22


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_integrate_homoclinic_tail_text(fmt, capsys):
    # on the homoclinic's tail a stays in 1e-5 <= |a| < 1e-4, where repr
    # writes 1.23e-05 and fixed notation would write 0.0000123
    state = [float(x) for x in homoclinic.derived_profile()(-6.0)]
    code, out, _ = run_cli(["integrate", "--state", ",".join(map(repr, state)),
                            "--t-final", "0.5", "--format", fmt], capsys)
    assert code == 0
    tr = integrators.integrate(np.array(state), 0.5,
                               integrators.StepperConfig())
    rows = np.column_stack([tr.times, tr.states, tr.energy_series])
    if fmt == "csv":
        assert out == csv_oracle(("t", "u", "v", "a", "b", "H"), rows)
    else:
        doc = {"schema": "cde-lab/1", "drift": integrators.energy_drift(tr),
               "samples": rows.tolist()}
        assert out == json.dumps(doc, indent=2) + "\n"


def test_cli_integrate_json_text_pinned(capsys):
    code, out, _ = run_cli(["integrate", "--state", "1,0,0.3,0.35",
                            "--t-final", "0.02", "--dt", "0.01",
                            "--method", "rk4", "--format", "json"], capsys)
    assert code == 0
    rows = [[0.0, 1.0, 0.0, 0.3, 0.35, -0.12375000000000001],
            [0.01, 1.0000018641630808, 0.0003717485636603332,
             0.30050000434036966, 0.35049999624126504, -0.12374999999999942],
            [0.02, 1.0000074132757932, 0.0007369884786286891,
             0.30100003444739726, 0.35099996986230086, -0.12374999999999886]]
    samples = ",\n".join(
        "    [\n" + ",\n".join(f"      {x!r}" for x in row) + "\n    ]"
        for row in rows)
    assert out == ('{\n  "schema": "cde-lab/1",\n'
                   '  "drift": 1.1518563880486e-15,\n'
                   '  "samples": [\n' + samples + "\n  ]\n}\n")


def test_cli_integrate_singular_newton_matrix_is_solver_failure(capsys):
    # dt = 2 zeroes row 3 of I - (dt/2) Df at u = 0
    code, _, err = run_cli(["integrate", "--state", "0,0,0.3,0.2",
                            "--t-final", "2", "--dt", "2"], capsys)
    assert code == 1
    assert "solver failure" in err and "singular" in err


def test_cli_integrate_overflowing_acceptance_bound_is_one_line():
    # (NEWTON_TOL |s|_inf)^2 overflows in step 1; a whole process, so that a
    # traceback would show on stderr
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "cdelab.cli", "integrate",
                          "--state=-3.223729286484272e+90,1,0,1",
                          "--t-final", "2", "--dt", "1"],
                         env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == "solver failure: state overflow after step 1\n"


def test_cli_integrate_bad_state(capsys):
    code, _, err = run_cli(["integrate", "--state", "1,0,0.3",
                            "--t-final", "1.0"], capsys)
    assert code == 2
    assert "invalid input" in err


def test_cli_homoclinic(capsys):
    code, out, _ = run_cli(["homoclinic"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha_sq"] == 1.5 and doc["beta_sq"] == 0.375
    assert doc["ode_residual"] <= 1e-10
    code, out, _ = run_cli(["homoclinic", "--paper-constants"], capsys)
    assert code == 0
    assert json.loads(out)["profile"]["convention"] == "quoted"


def test_cli_ground_state(capsys):
    code, out, _ = run_cli(["ground-state", "--epsilon", "0.2"], capsys)
    assert code == 0
    rec = json.loads(out)
    for key in ("schema", "T", "epsilon", "H", "residual", "initial_state",
                "samples", "provenance", "delta_eps", "field"):
        assert key in rec
    assert rec["T"] == 5.0
    assert rec["delta_eps"] < 1.25


def test_cli_verify_exit_codes(capsys):
    code, out, _ = run_cli(["verify", "homoclinic"], capsys)
    assert code == 0
    assert "[PASS]" in out
    code, _, err = run_cli(["verify", "nonexistent-suite"], capsys)
    assert code == 2


@pytest.mark.parametrize("flags", [["--tol", "0"], ["--tol", "-1"],
                                   ["--modes", "0"], ["--modes", "-1"],
                                   ["--epsilon", "0"],
                                   ["--epsilon", "-0.1"], ["--epsilon", "inf"],
                                   ["--epsilon", "nan"]], ids=" ".join)
def test_cli_ground_state_rejects_nonpositive_tol_and_modes(flags, capsys):
    # the last --epsilon on the command line wins
    code, _, err = run_cli(["ground-state", "--epsilon", "0.05", *flags],
                           capsys)
    assert code == 2
    assert "invalid input" in err
    assert flags[0] != "--epsilon" or "epsilon" in err


@pytest.mark.parametrize("argv", [
    ["ground-state", "--epsilon", "0.05", "--modes", "100000000"],
    ["ground-state", "--epsilon", "1e-300"],
    ["continuation", "--eps-grid", "1e-300"]], ids=" ".join)
def test_cli_rejects_more_than_max_modes(argv, monkeypatch, capsys):
    # K is checked before the start field is built
    def unreachable(*args):
        raise AssertionError("built a field past MAX_MODES")

    monkeypatch.setattr(spectral, "_periodized_homoclinic", unreachable)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "invalid input" in err and "MAX_MODES" in err


@pytest.mark.parametrize("argv", [["ground-state", "--epsilon", "1e-320"],
                                  ["continuation", "--eps-grid", "1e-320"]],
                         ids=" ".join)
def test_cli_rejects_an_epsilon_whose_default_modes_overflow(argv, capsys):
    # 6.4 / 1e-320 is inf: compared with MAX_MODES before int() sees it
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "invalid input" in err
    assert "eps = 1e-320" in err and "MAX_MODES" in err


@pytest.mark.parametrize("argv", [["lyapunov", "--amplitudes", ","],
                                  ["continuation", "--eps-grid", ","],
                                  ["continuation", "--eps-grid", " "]],
                         ids=" ".join)
def test_cli_rejects_empty_number_lists(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "invalid input" in err and argv[1] in err


def test_cli_ground_state_with_too_few_modes_is_a_solver_failure(capsys):
    # K = 3 converges on the truncated problem (delta_eps 1.3445, against
    # 0.88357 at the default K = 128), and the coefficient tail shows it
    code, out, err = run_cli(["ground-state", "--epsilon", "0.05",
                              "--modes", "3"], capsys)
    assert code == 1
    assert out == ""
    assert "solver failure" in err and "truncated" in err


@pytest.mark.parametrize("flag, value, name", [
    ("--t-final", "nan", "t_final"), ("--t-final", "inf", "t_final"),
    ("--t-final", "-inf", "t_final"), ("--dt", "inf", "dt"),
    ("--dt", "nan", "dt"), ("--state", "nan,0,0.3,0.35", "--state"),
    ("--state", "1,0,inf,0.35", "--state")],
    ids=["nan", "inf", "-inf", "--dt inf", "--dt nan",
         "--state nan,0,0.3,0.35", "--state 1,0,inf,0.35"])
def test_cli_integrate_rejects_a_nonfinite_t_final(flag, value, name, capsys):
    # and a non-finite --dt or --state; integrate and StepperConfig reject
    # t_final and dt themselves, the CLI checks --state
    args = {"--state": "1,0,0.3,0.35", "--t-final": "1", "--dt": "1e-3"}
    args[flag] = value
    if flag != "--state":
        with pytest.raises(ValueError, match=name):
            integrators.integrate(np.array([1.0, 0.0, 0.3, 0.35]),
                                  float(args["--t-final"]),
                                  integrators.StepperConfig(
                                      dt=float(args["--dt"])))
    argv = ["integrate", *(f"{k}={v}" for k, v in args.items())]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "invalid input" in err and name in err and value in err


@pytest.mark.parametrize("flag, value", [("--dt", "1e-300"),
                                         ("--t-final", "1e300")])
def test_cli_integrate_rejects_too_many_steps(flag, value, capsys):
    args = {"--state": "1,0,0.3,0.35", "--t-final": "1", "--dt": "1e-3"}
    args[flag] = value
    code, out, err = run_cli(
        ["integrate", *(f"{k}={v}" for k, v in args.items())], capsys)
    assert code == 2
    assert out == ""
    assert "invalid input" in err and "steps exceeds MAX_STEPS" in err


def test_cli_verify_all_passes_at_the_default_tolerances(capsys):
    code, out, _ = run_cli(["verify", "all"], capsys)
    assert code == 0
    assert out.endswith("all checks passed: 24/24\n")


def test_cli_verify_operator_a_prints_python_floats(capsys):
    code, out, _ = run_cli(["verify", "operator-a"], capsys)
    assert code == 0
    assert ("[PASS] trivial kernel: min |lambda| = 1 (min = 1.0)\n"
            in out.splitlines(keepends=True))


def test_verify_operator_a_checks_the_solver_operator(monkeypatch):
    # the omega part of the packed linear part, which Newton and the energy
    # run, off by a relative 1e-6
    build = spectral.build_spectrum

    def skewed(eps, K):
        sp = build(eps, K)
        sp.linear_w = (sp.linear_w[0], (1.0 + 1e-6) * sp.linear_w[1])
        return sp

    monkeypatch.setattr(spectral, "build_spectrum", skewed)
    failed = [name for name, passed, _ in verify.run_suite("operator-a")
              if not passed]
    assert failed == ["A^2 = -z'' + z in coefficients"]


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_cli_verify_fails_every_suite_at_a_tiny_tol(suite, capsys):
    code, out, _ = run_cli(["verify", suite, "--tol", "1e-300"], capsys)
    assert code == 1
    assert "[FAIL]" in out


def test_cli_verify_transforms_reads_tol_for_kappa(capsys):
    code, out, _ = run_cli(["verify", "transforms", "--tol", "1e-300"], capsys)
    assert code == 1
    assert "[FAIL] transported homoclinic fits kappa = 1 (" in out


def glibc():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None


@pytest.mark.skipif(not glibc(), reason="mallopt is glibc's")
def test_only_the_cli_keeps_freed_record_buffers():
    # minor page faults of two integrate tasks, each one integrate and its
    # trajectory_to_csv, in a fresh process: imported alone, cdelab leaves
    # the allocator as it is, and the second task faults its buffers in
    # again; after cli.main it runs with almost none.  Each side has its own
    # process, since glibc's adaptive mmap threshold can settle after a few
    # tasks, and a task after that faults little whatever cli.main did
    if integrators._flow_kernel() is None:
        pytest.skip("no C compiler builds _flow.c")
    code = """if 1:
        import contextlib, io, resource, sys
        from cdelab import cli, homoclinic, integrators, serialize
        if sys.argv[1] == "cli":
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["equilibria"])
        s0 = homoclinic.derived_profile()(-2.0)
        def faults():
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            tr = integrators.integrate(s0, 7.5, integrators.StepperConfig())
            serialize.trajectory_to_csv(tr)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        print([faults() for _ in range(2)])
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    imported, after_cli = (json.loads(subprocess.run(
        [sys.executable, "-c", code, first], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=src)).stdout)
        for first in ("import", "cli"))
    assert imported[1] >= 100, imported
    assert after_cli[1] < 10, after_cli


@pytest.mark.parametrize("argv", [
    ["integrate", "--state", "1,0,0.3,0.35", "--t-final", "0.05",
     "--tol", "1e-3"],
    ["homoclinic", "--seed", "5"],
    ["verify", "homoclinic", "--format", "json"],
    ["transform", "--from", "cylinder", "--to", "euclidean",
     "--input", "profile.csv", "--format", "json"],
], ids=" ".join)
def test_cli_rejects_flags_the_subcommand_does_not_read(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("amplitude", ["0.25", "1.0"])
def test_cli_lyapunov_off_the_branch_names_the_spectral_residual(amplitude,
                                                                 capsys):
    # Newton's trial steps there take eps to zero or below; the line search
    # rejects them, so the solve ends on its residual (2.067e-01 and
    # 4.015e+00), not on an invalid period
    code, out, err = run_cli(["lyapunov", "--amplitudes", amplitude], capsys)
    assert code == 1 and out == ""
    assert "solver failure" in err and "spectral residual" in err
    assert float(err.split()[-1]) > orbits.NEWTON_TOL


def test_cli_lyapunov_huge_amplitude_fails_in_one_line(capsys):
    # the solve overflows at h = 1e300: its nan merit fails the acceptance
    # on the residual, with no numpy RuntimeWarning written before it
    code, out, err = run_cli(["lyapunov", "--amplitudes", "1e300"], capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("solver failure: ")
    assert err.endswith("spectral residual nan\n")


@pytest.mark.parametrize("epsilon", ["1e100", "1e308"])
def test_cli_ground_state_huge_epsilon_fails_in_one_line(epsilon, capsys):
    # the residual norm overflows to inf at 1e100, and at 1e308 the
    # spectrum's weights already overflow, to a nan merit: either fails the
    # acceptance on the residual, with no numpy RuntimeWarning written first
    code, out, err = run_cli(["ground-state", "--epsilon", epsilon], capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("solver failure: ")
    assert err.split()[-1] in ("inf", "nan")


@pytest.mark.parametrize("epsilon", ["1e20", "1e50"])
def test_cli_ground_state_past_the_branch_names_its_end(epsilon, capsys):
    # past eps* the solve stops short of the constant here, on its residual,
    # and the one line still says that eps lies past the branch's end
    code, out, err = run_cli(["ground-state", "--epsilon", epsilon], capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("solver failure: ")
    assert "did not reach tolerance" in err
    assert "past the branch's end at eps* = 2^(1/4)/pi = 0.3785" in err


@pytest.mark.parametrize("amplitudes", ["1e-8", "3e-9", "1e-2,1.2e-8"])
def test_cli_lyapunov_rejects_amplitudes_below_the_floor(amplitudes, capsys):
    # such an orbit is not constant, but the acceptance rule takes it for one
    code, out, err = run_cli(["lyapunov", "--amplitudes", amplitudes], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: ") and "MIN_AMPLITUDE" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_lyapunov_samples_each_orbit_once(monkeypatch, fmt, capsys):
    # one trajectory gives both the record's samples and distance_to_center
    calls = [0]
    original = orbits.field_to_orbit

    def counted(field):
        calls[0] += 1
        return original(field)

    monkeypatch.setattr(orbits, "field_to_orbit", counted)
    code, _, _ = run_cli(["lyapunov", "--amplitudes", "1e-3,1e-2,5e-2",
                          "--format", fmt], capsys)
    assert code == 0 and calls[0] == 3


def test_cli_lyapunov_csv_text(capsys):
    amplitudes = [1e-4, 1e-3]
    code, out, _ = run_cli(["lyapunov", "--amplitudes", "1e-4,1e-3",
                            "--format", "csv"], capsys)
    assert code == 0
    rows = []
    for h, orbit in zip(amplitudes, orbits.lyapunov_family(amplitudes)):
        states = orbits.field_to_orbit(orbit.field).states
        rows.append([h, orbit.period, orbit.hamiltonian, orbit.merit,
                     np.max(np.linalg.norm(states - dynamics.P_PLUS, axis=1))])
    assert out == csv_oracle(("amplitude", "period", "H", "residual",
                              "distance_to_center"), rows)


@pytest.mark.parametrize("amplitudes", ["0", "-1", "nan", "1e-2,-1e-3"])
def test_cli_lyapunov_rejects_negative_and_nonfinite_amplitudes(amplitudes,
                                                                 capsys):
    code, _, err = run_cli(["lyapunov", "--amplitudes", amplitudes], capsys)
    assert code == 2
    assert "amplitude h" in err


def test_cli_transform_roundtrip(tmp_path, capsys):
    t = np.linspace(-3.0, 3.0, 601)
    prof = homoclinic.derived_profile()
    u, _, a, b = prof(t)
    p = geometry.RadialProfile(chart="cylinder", grid=t, u=u, f1=a, f2=b)
    src = tmp_path / "cyl.csv"
    with open(src, "w") as fh:
        fh.write(serialize.profile_to_csv(p))

    out_file = tmp_path / "euc.csv"
    code, _, _ = run_cli(["transform", "--from", "cylinder", "--to", "euclidean",
                          "--input", str(src), "--out", str(out_file)], capsys)
    assert code == 0
    with open(out_file) as fh:
        euc = serialize.profile_from_csv(fh)
    assert euc.chart == "euclidean"

    sphere_file = tmp_path / "sph.csv"
    code, out, err = run_cli(["transform", "--from", "euclidean", "--to",
                              "sphere", "--input", str(out_file),
                              "--out", str(sphere_file)], capsys)
    assert code == 0 and out == ""
    assert json.loads(err)["conformal_factor"] == "Omega = 2/(1 + r^2)"
    with open(sphere_file) as fh:
        sph = serialize.profile_from_csv(fh)
    assert sph.chart == "sphere"
    assert sph.grid.min() > 0.0 and sph.grid.max() < np.pi


def test_cli_transform_rejects_a_header_other_than_from(tmp_path, capsys):
    t = np.linspace(0.5, 3.0, 26)
    p = geometry.RadialProfile(chart="cylinder", grid=t, u=np.exp(-t),
                               f1=np.exp(-t), f2=np.exp(-2 * t))
    src = tmp_path / "cyl.csv"
    src.write_text(serialize.profile_to_csv(p))
    code, out, err = run_cli(["transform", "--from", "euclidean", "--to",
                              "sphere", "--input", str(src)], capsys)
    assert (code, out) == (2, "")
    assert "invalid input" in err and "cylinder" in err


def test_cli_transform_rejects_t_beyond_float64_radii(tmp_path):
    # e^800 overflows: one line on stderr, no numpy RuntimeWarning before it
    src = tmp_path / "cyl.csv"
    src.write_text("t,u,a,b\n-800.0,0.1,0.1,0.1\n0.0,0.2,0.2,0.2\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "cdelab.cli", "transform",
                          "--from", "cylinder", "--to", "euclidean",
                          "--input", str(src)],
                         env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("invalid input: ")
    assert run.stderr.count("\n") == 1 and "t in [-800, 0]" in run.stderr


def test_cli_transform_rejects_an_infinite_radius(tmp_path):
    # r = inf would land on the pole theta = pi with u, f1, f2 = inf
    src = tmp_path / "euc.csv"
    src.write_text("r,u,f1,f2\n0.5,0.1,0.1,0.1\n1.0,0.2,0.2,0.2\n"
                   "inf,0.3,0.3,0.3\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "cdelab.cli", "transform",
                          "--from", "euclidean", "--to", "sphere",
                          "--input", str(src)],
                         env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == "invalid input: profile grid nodes must be finite\n"


def test_cli_transform_rejects_an_empty_file(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("")
    code, _, err = run_cli(["transform", "--from", "cylinder", "--to",
                            "euclidean", "--input", str(src)], capsys)
    assert code == 2
    assert "unrecognized profile header" in err


def test_cli_transform_missing_file(capsys):
    code, _, err = run_cli(["transform", "--from", "cylinder", "--to",
                            "euclidean", "--input", "/nonexistent.csv"], capsys)
    assert code == 2


def test_cli_continuation(capsys):
    code, out, _ = run_cli(["continuation", "--eps-grid", "0.2"], capsys)
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "epsilon,T,delta_eps,gap,converged"
    fields = rows[1].split(",")
    assert float(fields[0]) == 0.2 and fields[4] == "1"


def test_cli_continuation_spans_the_branch(capsys):
    # from next to the branch's end at eps* = 2^(1/4)/pi down to small eps
    code, out, _ = run_cli(["continuation", "--eps-grid", "0.378,0.3,0.025",
                            "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["epsilon"] for row in rows] == [0.378, 0.3, 0.025]
    for row in rows:
        assert row["converged"]
        assert row["delta_eps"] < 1.0 / (4.0 * row["epsilon"])


def test_cli_out_file(tmp_path, capsys):
    path = tmp_path / "eq.json"
    code, out, _ = run_cli(["equilibria", "--out", str(path)], capsys)
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["schema"] == "cde-lab/1"
