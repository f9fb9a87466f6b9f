"""CSV and JSON export of trajectories, fields, orbits, and profiles.

All documents carry the schema tag "cde-lab/1".  CSV files have a header row
and fixed column order, with the bytes ``csv.writer`` writes when each float
is its ``float.__repr__``.  ``dumps(doc)`` returns exactly
``json.dumps(doc, indent=2)``, with each ndarray written as its ``tolist()``.

Each writer makes one orjson pass over a whole table or document.  orjson's
Ryu printer writes repr's shortest round-trip digits, but spells them
otherwise in three bands: ``1.5e-6``, ``0.0000123`` and ``1e16`` for repr's
``1.5e-06``, ``1.23e-05`` and ``1e+16`` (``1e-9 <= |x| < 1e-5``,
``1e-5 <= |x| < 1e-4``, ``|x| >= 1e16``), and nan and inf as ``null``.  Those
floats become null holes (NaN) before the pass; their text, spelled a band at
a time, fills the holes after it, with ``null`` for each None.  ``dumps``
first walks the document and makes each scalar float a hole with json's own
text.  A document that orjson would not write as json does (a non-str key, a
str with a non-ASCII character, DEL or ``ull``, an int beyond 64 bits, any
other type) is written by ``json.dumps`` itself.
"""

import csv
import io
import json

import numpy as np
import orjson

from . import spectral
from .geometry import RadialProfile, SCHEMA

PROFILE_COLUMNS = {
    "cylinder": ("t", "u", "a", "b"),
    "euclidean": ("r", "u", "f1", "f2"),
    "sphere": ("theta", "u", "f1", "f2"),
}


#: an orbit record keeps every (n // MIN_RECORD_SAMPLES)-th of a trajectory's
#: n samples: 400 to 799 of them when n >= 400, all of them otherwise
MIN_RECORD_SAMPLES = 400


def _inner_text(a):
    """orjson's text of an array, without its outer brackets."""
    return orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()


def _shift(text):
    """repr's text of a float with ``1e-5 <= |x| < 1e-4`` from orjson's:
    ``-0.0000123`` becomes ``-1.23e-05``, with the same digits."""
    sign, _, digits = text.partition("0.0000")
    return sign + digits[0] + ("." + digits[1:] if digits[1:] else "") + "e-05"


def _punch(a, nonfinite):
    """a as a C-contiguous float64 array with NaN (orjson's null) in place of
    each float that orjson does not spell as repr, and the text of those
    floats in C order: orjson's digits in repr's notation, spelled a band at
    a time, or ``nonfinite(x)`` for nan and inf."""
    a = np.ascontiguousarray(a, dtype=float)
    mag = np.abs(a)
    misspelled = ~(mag < 1e16) | ((mag >= 1e-9) & (mag < 1e-4))
    v, mag = a[misspelled], mag[misspelled]
    small, mid = mag < 1e-5, (mag >= 1e-5) & (mag < 1e-4)
    big, odd = (mag >= 1e16) & (mag < np.inf), ~(mag < np.inf)
    texts = np.empty(len(v), dtype=object)
    if small.any():
        texts[small] = _inner_text(v[small]).replace("e-", "e-0").split(",")
    if mid.any():
        texts[mid] = list(map(_shift, _inner_text(v[mid]).split(",")))
    if big.any():
        texts[big] = _inner_text(v[big]).replace("e", "e+").split(",")
    texts[odd] = [nonfinite(x) for x in v[odd].tolist()]
    return np.where(misspelled, np.nan, a), texts.tolist()


def _fill(text, holes):
    """text with its n-th ``null`` replaced by ``holes[n]``."""
    out = [""] * (2 * len(holes) + 1)
    out[::2] = text.split("null")
    out[1::2] = holes
    return "".join(out)


def _csv_table(header, rows):
    """A header and an (n, m) float table as CSV text."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(header)
    table, holes = _punch(rows, float.__repr__)
    body = _inner_text(table)[1:].replace("],[", "\n").replace("]", "\n")
    return out.getvalue() + _fill(body, holes)


def trajectory_to_csv(tr):
    """Columns t,u,v,a,b,H."""
    rows = np.column_stack([tr.times, tr.states, tr.energy_series])
    return _csv_table(("t", "u", "v", "a", "b", "H"), rows)


def field_grid_to_csv(field):
    """Collocation samples of a spectral field: columns t,u,a,b."""
    t = spectral.grid(spectral.grid_size(field.num_modes))
    rows = np.column_stack([t, field.grid_values[[0, 2, 3]].T])
    return _csv_table(("t", "u", "a", "b"), rows)


def _complex_array(doc, key):
    a = np.array(doc[key], dtype=float)
    if a.shape != (2 * int(doc["K"]) + 1, 2):
        raise ValueError(f"{key} needs 2K+1 rows [re, im], K = {doc['K']}")
    return a.view(complex)[:, 0]


def field_to_json(field, energy=None, residuals=None):
    """The field's document.  Its coefficient tables are C-contiguous
    float64 (2K+1, 2) arrays of [re, im] rows, for :func:`dumps`."""
    doc = {"schema": SCHEMA, "epsilon": field.epsilon, "K": field.num_modes}
    for key, c in (("u_coeffs", field.u_coeffs),
                   ("z_plus_coeffs", field.z_plus),
                   ("z_minus_coeffs", field.z_minus)):
        doc[key] = np.column_stack([c.real, c.imag])
    eb = energy if energy is not None else spectral.energy(field)
    doc["energy"] = {
        "scalar_quadratic": eb.scalar_quadratic,
        "spinor_quadratic": eb.spinor_quadratic,
        "coupling": eb.coupling,
        "total": eb.total,
    }
    res = residuals if residuals is not None else spectral.nehari_residuals(field)
    doc["residuals"] = {"r1": res.r1, "r2": res.r2, "r3": res.r3,
                        "coupling": res.coupling}
    return doc


def field_from_json(doc):
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unknown schema {doc.get('schema')!r}")
    coeffs = [_complex_array(doc, key)
              for key in ("u_coeffs", "z_plus_coeffs", "z_minus_coeffs")]
    return spectral.field_from_coeffs(
        spectral.build_spectrum(float(doc["epsilon"]), int(doc["K"])), *coeffs)


def orbit_record(orbit, tr, provenance, epsilon=None):
    """JSON document for a spectral.Solution, a ground state or an orbit,
    with tr its field sampled on [-T, T] by orbits.field_to_orbit."""
    stride = max(1, len(tr) // MIN_RECORD_SAMPLES)
    samples = np.column_stack([tr.times, tr.states])[::stride]
    return {
        "schema": SCHEMA,
        "T": orbit.half_period,
        "epsilon": epsilon,
        "H": orbit.hamiltonian,
        "residual": orbit.merit,
        "initial_state": orbit.initial_state,
        "samples": samples,
        "provenance": provenance,
    }


def profile_to_csv(profile):
    rows = np.column_stack([profile.grid, profile.u, profile.f1, profile.f2])
    return _csv_table(PROFILE_COLUMNS[profile.chart], rows)


def profile_from_csv(stream_or_text):
    """Read a profile CSV on the chart that its header names."""
    if isinstance(stream_or_text, str):
        stream_or_text = io.StringIO(stream_or_text)
    reader = csv.reader(stream_or_text)
    header = tuple(next(reader, ()))
    charts = [c for c, cols in PROFILE_COLUMNS.items() if cols == header]
    if not charts:
        raise ValueError(f"unrecognized profile header {header!r}")
    data = np.array([[float(x) for x in row] for row in reader if row])
    if data.shape[0] < 2 or data.shape[1] != 4:
        raise ValueError("profile CSV must have >= 2 rows of 4 columns")
    return RadialProfile(chart=charts[0], grid=data[:, 0], u=data[:, 1],
                         f1=data[:, 2], f2=data[:, 3])


def diagram_to_csv(diagram):
    """Continuation table: columns epsilon,T,delta_eps,gap,converged."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("epsilon", "T", "delta_eps", "gap", "converged"))
    for row in diagram["rows"]:
        writer.writerow([repr(float(row["epsilon"])), repr(float(row["T"])),
                         repr(float(row["delta_eps"])), repr(float(row["gap"])),
                         int(row["converged"])])
    return out.getvalue()


def _str(s):
    """s, if orjson writes it as json does.  A str whose text holds ``null``
    holds ``ull``: newline + ``ull`` is written ``\\null``."""
    if type(s) is not str or not s.isascii() or "\x7f" in s or "ull" in s:
        raise TypeError("not written by orjson as by json")
    return s


def _walk(o, holes):
    """o for orjson, with a null hole for each scalar float and each
    misspelled array float.  Appends the text of each hole, and ``null`` for
    each None, to holes in document order.  Raises TypeError where orjson's
    text would not be json's."""
    if o is None:
        holes.append("null")
        return o
    if type(o) in (bool, int):          # orjson rejects ints beyond 64 bits
        return o
    if isinstance(o, float):
        holes.append(json.dumps(o))
        return None
    if type(o) is dict:
        return {_str(k): _walk(v, holes) for k, v in o.items()}
    if type(o) in (list, tuple):
        return [_walk(x, holes) for x in o]
    if type(o) is np.ndarray:
        if o.dtype != np.float64 or o.ndim == 0:
            return _walk(o.tolist(), holes)
        table, texts = _punch(o, json.dumps)
        holes += texts
        return table
    return _str(o)


def dumps(doc):
    """Exactly ``json.dumps(doc, indent=2)``, with each ndarray written as
    its ``tolist()``, for an acyclic document."""
    holes = []
    try:
        text = orjson.dumps(_walk(doc, holes), option=orjson.OPT_INDENT_2
                            | orjson.OPT_SERIALIZE_NUMPY).decode()
    except TypeError:
        return json.dumps(doc, indent=2, default=lambda o: o.tolist()
                          if isinstance(o, np.ndarray)
                          else json.JSONEncoder().default(o))
    return _fill(text, holes)
