"""Canonical JSON documents for complexes and rotation systems.

The canonical form is ``json.dumps(..., indent=2, ensure_ascii=False)``
plus a trailing newline, keys in the fixed order shown below, arrays in
input order.  ``dump_canonical`` writes those bytes for the value types
rotsys writes with a short recursive writer, since json's encoder runs
in Python generators once it indents; json itself writes any other
document.  Documents are trees, so json's check for a circular
reference is not repeated.
``emit_complex(parse_complex(doc)) == doc`` holds byte-for-byte for
canonical documents.  Parsing ignores unknown top-level keys so that
annotated documents (dual complexes carrying their rotation system)
stay consumable by every command.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _quote
from typing import Any

from .complexes import (
    DirectedComplex,
    PreComplex,
    SignedEdgeRef,
    Trail,
    GENERAL,
    SIMPLICIAL,
)
from .errors import DocumentError
from .rotation import RotationSystem, rotation_system_from_face_lists


def _load(text: str) -> dict[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise DocumentError("top-level value must be an object")
    return doc


def _list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"{what} must be a list, got {value!r}")
    return value


def _complex_from_doc(doc: dict[str, Any], cls: type[PreComplex]) -> PreComplex:
    """A ``cls`` built from a document's fields, their JSON types
    checked first."""
    for key in ("kind", "vertices", "edges", "faces"):
        if key not in doc:
            raise DocumentError(f"missing key {key!r}")
    kind = doc["kind"]
    if kind not in (SIMPLICIAL, GENERAL):
        raise DocumentError(f"kind must be 'simplicial' or 'general', got {kind!r}")
    vertices = tuple(_list(doc["vertices"], "vertices"))
    for v in vertices:
        if not isinstance(v, str):
            raise DocumentError(f"vertex id must be a string, got {v!r}")
    # indexing a JSON value other than an object by a key raises TypeError
    edges: dict[str, tuple[str, str]] = {}
    for entry in _list(doc["edges"], "edges"):
        try:
            eid, tail, head = entry["id"], entry["tail"], entry["head"]
        except (TypeError, KeyError) as exc:
            raise DocumentError(f"malformed edge entry {entry!r}") from exc
        if not (isinstance(eid, str) and isinstance(tail, str) and isinstance(head, str)):
            raise DocumentError(f"edge entry {entry!r}: id, tail and head must be strings")
        if eid in edges:
            raise DocumentError(f"duplicate edge id {eid!r}")
        edges[eid] = (tail, head)
    faces: dict[str, Trail] = {}
    for entry in _list(doc["faces"], "faces"):
        try:
            fid = entry["id"]
            trail = []
            for step in _list(entry["boundary"], "face boundary"):
                edge, sign = step["edge"], step["dir"]
                # bool is a subclass of int; "dir": true is not +1
                if not isinstance(edge, str) or type(sign) is not int or sign not in (1, -1):
                    raise DocumentError(
                        f"boundary step {step!r}: edge must be a string, dir 1 or -1"
                    )
                trail.append(SignedEdgeRef(edge, sign))
        except (TypeError, KeyError) as exc:
            raise DocumentError(f"malformed face entry {entry!r}") from exc
        if not isinstance(fid, str):
            raise DocumentError(f"face id must be a string, got {fid!r}")
        if fid in faces:
            raise DocumentError(f"duplicate face id {fid!r}")
        faces[fid] = tuple(trail)
    return cls(kind, vertices, edges, faces)


def parse_precomplex(text: str) -> PreComplex:
    """Parse a document leniently: referential integrity and closed
    trails are required, the standing assumptions are not."""
    return _complex_from_doc(_load(text), PreComplex)


def parse_complex(text: str) -> DirectedComplex:
    """Parse and fully validate a complex document."""
    return _complex_from_doc(_load(text), DirectedComplex)


def complex_to_doc(c: PreComplex) -> dict[str, Any]:
    return {
        "kind": c.kind,
        "vertices": list(c.vertices),
        "edges": [
            {"id": e, "tail": tail, "head": head}
            for e, (tail, head) in c.edges.items()
        ],
        "faces": [
            {
                "id": f,
                "boundary": [
                    {"edge": ref.edge, "dir": ref.sign} for ref in trail
                ],
            }
            for f, trail in c.faces.items()
        ],
    }


# json's text of a scalar that rotsys writes, by its exact type
_TEXT = {
    str: _quote,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
}


class _Unwritten(Exception):
    """A value or key that rotsys does not write itself."""


def _write(o: Any, out: list[str], newline: str) -> None:
    """Append json's text of ``o`` to ``out``; ``newline`` is the line
    break and indent that ``o``'s closing bracket follows.  Raises
    _Unwritten at a value or key outside the types of ``_TEXT``,
    lists, tuples and dicts with str keys."""
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in o:
            text = _TEXT.get(type(item))
            if text is not None:
                out.append(sep + text(item))
            else:
                out.append(sep)
                _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in o.items():
            if not isinstance(key, str):
                raise _Unwritten
            text = _TEXT.get(type(value))
            if text is not None:
                out.append(sep + _quote(key) + ": " + text(value))
            else:
                out.append(sep + _quote(key) + ": ")
                _write(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        text = _TEXT.get(type(o))
        if text is None:
            raise _Unwritten
        out.append(text(o))


def dump_canonical(doc: dict[str, Any]) -> str:
    out: list[str] = []
    try:
        _write(doc, out, "\n")
    except _Unwritten:
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    out.append("\n")
    return "".join(out)


def emit_complex(c: PreComplex, extra: dict[str, Any] | None = None) -> str:
    """Serialize ``c`` canonically; ``extra`` appends annotation keys."""
    doc = complex_to_doc(c)
    if extra:
        doc.update(extra)
    return dump_canonical(doc)


def parse_sigma(text: str, c: PreComplex) -> RotationSystem:
    """Parse a rotation-system document against complex ``c``.

    Edges in at most two faces may be omitted (their cyclic order is
    forced); any edge in three or more must be listed.
    """
    doc = _load(text)
    if "sigma" not in doc or not isinstance(doc["sigma"], dict):
        raise DocumentError("rotation-system document must carry a 'sigma' object")
    for e, faces in doc["sigma"].items():
        if not (isinstance(faces, list) and all(isinstance(f, str) for f in faces)):
            raise DocumentError(
                f"sigma of edge {e!r} must be a list of face ids, got {faces!r}"
            )
    return rotation_system_from_face_lists(c, doc["sigma"])


def sigma_to_doc(sigma: RotationSystem) -> dict[str, Any]:
    return {"sigma": {e: list(sigma.canonical(e)) for e in sorted(sigma.sigma)}}
