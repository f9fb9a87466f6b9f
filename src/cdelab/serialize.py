"""CSV and JSON export of trajectories, fields, orbits, and profiles.

All documents carry the schema tag "cde-lab/1".  CSV files have a header row
and fixed column order, with the bytes ``csv.writer`` writes when each float
is its ``float.__repr__``.  ``dumps(doc)`` returns exactly
``json.dumps(doc, indent=2)``, with each ndarray written as its ``tolist()``.

A writer takes one of two routes.  A plain table or document (every float
finite, every str ASCII without DEL, every key a str, every int within 64
bits, every ndarray float64) is printed by one orjson call, and
``respell`` in ``_flow.c`` rewrites that text in one pass into repr's
spelling of each float (its header names the three bands where orjson's
differs).  Every other table or document, and every one where ``_flow.c``
cannot be built, is written by ``csv.writer`` or by ``json.dumps`` itself.
"""

import csv
import io
import json
import math

import numpy as np
import orjson

from . import integrators, spectral
from .geometry import RadialProfile, SCHEMA

PROFILE_COLUMNS = {
    "cylinder": ("t", "u", "a", "b"),
    "euclidean": ("r", "u", "f1", "f2"),
    "sphere": ("theta", "u", "f1", "f2"),
}


#: an orbit record keeps every (n // MIN_RECORD_SAMPLES)-th of a trajectory's
#: n samples: 400 to 799 of them when n >= 400, all of them otherwise
MIN_RECORD_SAMPLES = 400


def _respelled(lib, text, head=""):
    """orjson's text of a plain document as json's; with head, an ASCII CSV
    header line, orjson's text of a table as head and csv.writer's lines."""
    k, n = len(head), len(text)
    out = np.empty(k + n + n // 4 + 8, np.uint8)
    out[:k] = np.frombuffer(head.encode(), np.uint8)
    m = k + lib.respell(text, n, out[k:], bool(head))
    del text                            # freed before the str is made
    return str(memoryview(out)[:m], "ascii")


def _csv_table(header, rows):
    """A header and an (n, m) float table as CSV text."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    head = out.getvalue()
    rows = np.ascontiguousarray(rows, dtype=float)
    lib = integrators._flow_kernel()
    if lib is not None and np.isfinite(rows).all():
        return _respelled(lib, orjson.dumps(
            rows, option=orjson.OPT_SERIALIZE_NUMPY), head)
    writer.writerows(rows.tolist())         # csv writes a float as its repr
    return out.getvalue()


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
    """Raises TypeError unless s is a str that orjson writes as json does."""
    if type(s) is not str or not s.isascii() or "\x7f" in s:
        raise TypeError("not written by orjson as by json")


def _walk(o):
    """Raises TypeError unless o is a plain document, one that orjson writes
    as json does once respelled.  orjson itself raises at an int beyond 64
    bits."""
    if type(o) is dict:
        for k, v in o.items():
            _str(k)
            _walk(v)
    elif type(o) in (list, tuple):
        for x in o:
            _walk(x)
    elif type(o) is np.ndarray:
        if not (o.dtype == np.float64 and o.ndim and np.isfinite(o).all()):
            raise TypeError("not written by orjson as by json")
    elif isinstance(o, float):
        if not math.isfinite(o):
            raise TypeError("not written by orjson as by json")
    elif o is not None and type(o) not in (bool, int):
        _str(o)


def dumps(doc):
    """Exactly ``json.dumps(doc, indent=2)``, with each ndarray written as
    its ``tolist()``, for an acyclic document."""
    lib = integrators._flow_kernel()
    if lib is not None:
        try:
            _walk(doc)
            # orjson hands a strided array to default
            return _respelled(lib, orjson.dumps(
                doc, default=np.ascontiguousarray,
                option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY))
        except TypeError:
            pass
    return json.dumps(doc, indent=2, default=lambda o: o.tolist()
                      if isinstance(o, np.ndarray)
                      else json.JSONEncoder().default(o))
