"""Workspace snapshots: the source, the options and the pins, as JSON.

A snapshot holds nothing of the checker's state: loading opens the source
in a fresh workspace and replays the pins, so its first check is cold.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lattice.base import LatticeError
from repro.lattice.registry import get_lattice
from repro.workspace.session import Workspace, WorkspaceError

FORMAT = "p4bid-workspace"
VERSION = 5
#: The fields of a snapshot and the JSON type of each (``name`` may be null).
SHAPE = {
    "format": "str",
    "version": "int",
    "lattice": "str",
    "allow_declassification": "bool",
    "name": "str",
    "filename": "str",
    "revision": "int",
    "source": "str",
    "pins": "dict",
}


def save_workspace(workspace: Workspace, path: str | Path) -> None:
    """Write the text of ``workspace``'s latest ``open``/``edit`` (parsed or
    not), its lattice name, options and pins to ``path`` as UTF-8 JSON."""
    lattice = workspace.lattice
    if workspace.source is None:
        raise WorkspaceError("cannot save a workspace opened without source text")
    try:
        rebuilt = get_lattice(lattice.name)
    except LatticeError:
        rebuilt = None
    if type(rebuilt) is not type(lattice) or rebuilt.top != lattice.top:
        raise WorkspaceError(f"the lattice registry cannot rebuild {lattice.name!r}")
    pins = workspace.pins
    if workspace.program is not None:  # leave out pins no answer reads
        hints = {site.hint for site in workspace._ensure_generation().sites}
        pins = {hint: label for hint, label in pins.items() if hint in hints}
    snapshot = dict(
        format=FORMAT,
        version=VERSION,
        lattice=lattice.name,
        allow_declassification=workspace.allow_declassification,
        name=workspace.name,
        filename=workspace.filename,
        revision=workspace.revision,
        source=workspace.source,
        pins={hint: lattice.format_label(pins[hint]) for hint in sorted(pins)},
    )
    Path(path).write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")


def load_workspace(path: str | Path) -> Workspace:
    """Open a snapshot's source in a fresh workspace, replay its pins and
    restore its revision; malformed input raises :class:`WorkspaceError`."""
    try:
        snapshot = json.loads(Path(path).read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON
        raise WorkspaceError(f"{path}: not a {FORMAT} file ({exc})") from exc
    if not isinstance(snapshot, dict) or snapshot.get("format") != FORMAT:
        raise WorkspaceError(f"{path}: not a {FORMAT} file")
    if snapshot.get("version") != VERSION:
        raise WorkspaceError(f"{path}: format version is not {VERSION}")
    shape = {key: type(value).__name__ for key, value in snapshot.items()}
    if shape not in (SHAPE, {**SHAPE, "name": "NoneType"}):
        raise WorkspaceError(f"{path}: malformed snapshot, expected fields {SHAPE}")
    pins = snapshot["pins"]
    if snapshot["revision"] < 1 or not all(isinstance(t, str) for t in pins.values()):
        raise WorkspaceError(f"{path}: malformed revision or pins")
    try:
        lattice = get_lattice(snapshot["lattice"])
        labels = {hint: lattice.parse_label(text) for hint, text in pins.items()}
    except LatticeError as exc:
        raise WorkspaceError(f"{path}: {exc}") from exc
    workspace = Workspace(
        lattice,
        allow_declassification=snapshot["allow_declassification"],
        name=snapshot["name"],
    )
    workspace.revision = snapshot["revision"] - 1  # ``open`` installs the next
    if workspace.open(snapshot["source"], filename=snapshot["filename"]):
        for hint in sorted(labels):
            workspace.pin(hint, labels[hint])
    else:  # no slots to check the pins against: they wait, as when saved
        workspace._pin_hints.update(labels)
    return workspace
