"""CSV and JSON export of trajectories, fields, orbits, and profiles.

All documents carry the schema tag "cde-lab/1".  CSV files have a header row
and fixed column order; each float is written as its ``float.__repr__``.  A
CSV table is written a chunk of rows at a time: one formatting pass fills one
row template per row, giving ``csv.writer``'s bytes (a float's repr needs no
quoting).  ``dumps`` returns exactly ``json.dumps(doc, indent=2)`` for any
acyclic document, without json's pure-Python indenting encoder; float lists
and tables take the same template path.  Floats are formatted by orjson's Ryu
printer, which writes repr's shortest round-trip digits far faster.  Its
notation differs from repr's in three bands of finite values, and there its
text is respelled: orjson's ``1.5e-6``, ``0.0000123`` and ``1e16`` become
``1.5e-06``, ``1.23e-05`` and ``1e+16`` for ``1e-9 <= |x| < 1e-5``,
``1e-5 <= |x| < 1e-4`` and ``|x| >= 1e16``.  orjson writes nan and inf as
``null``; only those values are redone by ``repr``.
"""

import csv
import io
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

from . import spectral
from .geometry import RadialProfile, SCHEMA

PROFILE_COLUMNS = {
    "cylinder": ("t", "u", "a", "b"),
    "euclidean": ("r", "u", "f1", "f2"),
    "sphere": ("theta", "u", "f1", "f2"),
}


#: table rows rendered per %-template, in CSV and JSON: bounds the float
#: strings alive at once
_CHUNK_ROWS = 1024

#: an orbit record keeps every (n // MIN_RECORD_SAMPLES)-th of a trajectory's
#: n samples: 400 to 799 of them when n >= 400, all of them otherwise
MIN_RECORD_SAMPLES = 400


def _respell(text):
    """repr's spelling of orjson's ``text`` of a finite float x with
    ``1e-9 <= |x| < 1e-4`` or ``|x| >= 1e16``: the same digits."""
    if "e-" in text:                # |x| < 1e-5: the exponent is one digit
        return text.replace("e-", "e-0")
    if "e" in text:                 # |x| >= 1e16
        return text.replace("e", "e+")
    sign, _, digits = text.partition("0.0000")     # 1e-5 <= |x| < 1e-4
    return sign + digits[0] + ("." + digits[1:] if digits[1:] else "") + "e-05"


def _reprs(values):
    """``float.__repr__`` of each of a non-empty sequence of floats."""
    a = np.ascontiguousarray(values, dtype=float)
    text = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)
    out = text[1:-1].decode().split(",")
    mag = np.abs(a)
    redo = ~(mag < 1e16) | ((mag >= 1e-9) & (mag < 1e-4))
    for i in np.flatnonzero(redo).tolist():
        t = out[i]
        out[i] = float.__repr__(a[i]) if t == "null" else _respell(t)
    return out


def _csv_table(header, rows):
    """A header and an (n, m) float table as CSV text."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(header)
    row = ",".join(["%s"] * rows.shape[1]) + "\n"
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS]
        values = tuple(_reprs(chunk.ravel()))
        out.write(row * len(chunk) % values)
    return out.getvalue()


def trajectory_to_csv(tr):
    """Columns t,u,v,a,b,H."""
    rows = np.column_stack([tr.times, tr.states, tr.energy_series])
    return _csv_table(("t", "u", "v", "a", "b", "H"), rows)


def field_grid_to_csv(field):
    """Collocation samples of a spectral field: columns t,u,a,b."""
    t = spectral.grid(spectral.grid_size(field.num_modes))
    z = field.z_values()
    rows = np.column_stack([t, field.u_values(), z[:, 0], z[:, 1]])
    return _csv_table(("t", "u", "a", "b"), rows)


def _complex_list(c):
    return np.column_stack([c.real, c.imag]).tolist()


def _complex_array(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def field_to_json(field, energy=None, residuals=None):
    doc = {
        "schema": SCHEMA,
        "epsilon": field.epsilon,
        "K": field.num_modes,
        "u_coeffs": _complex_list(field.u_coeffs),
        "z_plus_coeffs": _complex_list(field.z_plus),
        "z_minus_coeffs": _complex_list(field.z_minus),
    }
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
    return spectral.PeriodicField(
        epsilon=float(doc["epsilon"]),
        num_modes=int(doc["K"]),
        u_coeffs=_complex_array(doc["u_coeffs"]),
        z_plus=_complex_array(doc["z_plus_coeffs"]),
        z_minus=_complex_array(doc["z_minus_coeffs"]),
    )


def orbit_record(orbit, provenance, epsilon=None):
    """JSON document for a periodic orbit or converted field."""
    tr = orbit.trajectory
    stride = max(1, len(tr) // MIN_RECORD_SAMPLES)
    samples = np.column_stack([tr.times, tr.states])[::stride].tolist()
    return {
        "schema": SCHEMA,
        "T": orbit.half_period,
        "epsilon": epsilon,
        "H": orbit.energy,
        "residual": orbit.residual,
        "initial_state": [float(x) for x in orbit.initial_state],
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


#: json's spelling of the floats whose repr is not JSON
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x):
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _key(k):
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if isinstance(k, (int, float)) or k is None:     # bool is an int
        return '"' + _encode(k, 0) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def _float_block(items, level):
    """A list of floats, or of equal-length rows of floats, rendered through
    one %-template per chunk of rows; None for any other list."""
    kinds = set(map(type, items))
    if kinds <= {list, tuple}:
        widths = set(map(len, items))
        if len(widths) != 1 or 0 in widths:
            return None
        (width,) = widths
        values = list(chain.from_iterable(items))
        kinds = set(map(type, values))
        cell = _bracket(["%s"] * width, level + 1)
    else:
        width, values, cell = 1, items, "%s"
    if not all(issubclass(k, float) for k in kinds):
        return None
    step = _CHUNK_ROWS * width
    sep = ",\n" + "  " * (level + 1)
    parts = []
    for start in range(0, len(values), step):
        reprs = tuple(_reprs(values[start:start + step]))
        template = sep.join([cell] * (len(reprs) // width))
        text = template % reprs
        if "n" in text:             # nan or inf: no finite repr has an "n"
            text = template % tuple(_NONFINITE.get(r, r) for r in reprs)
        parts.append(text)
    return _bracket(parts, level)


def _bracket(parts, level, ends="[]"):
    inner = "\n" + "  " * (level + 1)
    return (ends[0] + inner + ("," + inner).join(parts) + "\n" + "  " * level
            + ends[1])


def _encode(o, level):
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return (_float_block(o, level)
                or _bracket([_encode(x, level + 1) for x in o], level))
    if isinstance(o, dict):
        if not o:
            return "{}"
        return _bracket([_key(k) + ": " + _encode(v, level + 1)
                         for k, v in o.items()], level, "{}")
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    f"is not JSON serializable")


def dumps(doc):
    """Exactly ``json.dumps(doc, indent=2)``, for an acyclic document."""
    return _encode(doc, 0)
