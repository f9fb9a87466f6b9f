"""CSV and JSON export of trajectories, fields, orbits, and profiles.

All documents carry the schema tag "cde-lab/1".  CSV files have a header row
and fixed column order, with the bytes ``csv.writer`` writes when each float
is its ``float.__repr__``.  ``dumps(doc)`` returns exactly
``json.dumps(doc, indent=2)``, with each ndarray written as its ``tolist()``.

Every 1-D or 2-D float64 array, a CSV table's rows or an array in a
document, is printed by ``write_floats`` in ``_flow.c``, which spells each
float as repr does; ``json.dumps`` writes the rest of each document.  Where
``_flow.c`` cannot be built, ``csv.writer`` and ``json.dumps`` write it all.
"""

import csv
import io
import json

import numpy as np

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


def _text_bound(a, depth):
    """The most bytes that write_floats writes for a (_flow.c's header)."""
    rows = len(a) if a.ndim == 2 else 0
    if depth < 0:
        return 25 * a.size + rows
    return a.size * (2 * depth + 30) + rows * (4 * depth + 9) + 2 * depth + 3


def _joined(lib, pieces, arrays, depths):
    """pieces[0], the text of arrays[0] at depths[0], pieces[1], and so on,
    as one str: each array a C-contiguous 1-D or 2-D float64 one, and each
    piece ASCII."""
    out = np.empty(sum(map(len, pieces))
                   + sum(map(_text_bound, arrays, depths)), np.uint8)
    end = 0
    for i, piece in enumerate(pieces):
        out[end:end + len(piece)] = np.frombuffer(piece.encode(), np.uint8)
        end += len(piece)
        if i < len(arrays):
            a = arrays[i]
            n, m = a.shape if a.ndim == 2 else (len(a), -1)
            end += lib.write_floats(a, n, m, depths[i], lib.pow10_table,
                                    out[end:])
    return str(memoryview(out)[:end], "ascii")


def _csv_table(header, rows):
    """A header and an (n, m) float table as CSV text."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    rows = np.ascontiguousarray(rows, dtype=float)
    lib = integrators._flow_kernel()
    if lib is not None:
        return _joined(lib, [out.getvalue()], [rows], [-1])
    writer.writerows(rows.tolist())         # csv writes a float as its repr
    return out.getvalue()


def trajectory_to_csv(tr):
    """Columns t,u,v,a,b,H."""
    return _csv_table(("t", "u", "v", "a", "b", "H"), tr.rows)


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


#: the str that stands for a float64 array in json's text of a document
_ARRAY = "cdelab float64 array"


def dumps(doc):
    """Exactly ``json.dumps(doc, indent=2)``, with each ndarray written as
    its ``tolist()``."""
    lib = integrators._flow_kernel()
    arrays = []

    def default(o):
        if not isinstance(o, np.ndarray):
            return json.JSONEncoder().default(o)
        if (lib is None or type(o) is not np.ndarray
                or o.dtype != np.float64 or o.ndim not in (1, 2)):
            return o.tolist()
        arrays.append(np.ascontiguousarray(o))
        return _ARRAY

    text = json.dumps(doc, indent=2, default=default)
    pieces = text.split(json.dumps(_ARRAY))
    if len(pieces) != len(arrays) + 1:      # a str of doc is _ARRAY
        lib = None
        return json.dumps(doc, indent=2, default=default)
    if not arrays:
        return text
    # an array's depth is its line's indentation over 2
    depths = [(len(line) - len(line.lstrip(" "))) // 2
              for line in (p[p.rfind("\n") + 1:] for p in pieces[:-1])]
    return _joined(lib, pieces, arrays, depths)
