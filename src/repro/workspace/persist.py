"""Versioned persistence for solved workspaces.

:func:`save_workspace` pickles the whole :class:`~repro.workspace.session.Workspace`
-- program, per-unit caches, registry, solver, solved assignment -- inside
a versioned envelope; :func:`load_workspace` validates the envelope and
rebinds the ambient telemetry recorder (recorders are session state, never
persisted).  Because pickling preserves referential identity across the
object graph (the same :class:`~repro.inference.terms.LabelVar` object is
one object on load, wherever it was referenced), a loaded workspace
produces *byte-identical* results to the session that saved it.

The format is a trusted-input cache, exactly like compiler ``.o`` /
incremental-build artifacts: load only files your own sessions wrote
(pickle executes no validation against adversarial inputs).
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Union

from repro.frontend.parser import ParseIndex
from repro.telemetry.recorder import NULL_RECORDER, current_recorder
from repro.version import __version__

FORMAT = "p4bid-workspace"
VERSION = 4


def save_workspace(workspace, path: Union[str, Path]) -> None:
    """Persist ``workspace`` (with its solved state) to ``path``."""
    from repro.workspace.session import Workspace

    if not isinstance(workspace, Workspace):
        raise TypeError(f"expected a Workspace, got {type(workspace).__name__}")
    algebra = workspace._generator.algebra
    live_recorder = algebra.telemetry
    # Recorders hold session-local trace state (and a TraceRecorder an
    # unbounded span list); persisted workspaces always carry the no-op
    # recorder and re-capture the ambient one on load / next refresh.
    algebra.telemetry = NULL_RECORDER
    try:
        payload = {
            "format": FORMAT,
            "version": VERSION,
            "tool_version": __version__,
            "lattice": workspace.lattice.name,
            "revision": workspace.revision,
            "workspace": workspace,
        }
        with open(path, "wb") as handle:
            pickle.dump(payload, handle, protocol=4)
    finally:
        algebra.telemetry = live_recorder


def load_workspace(path: Union[str, Path]):
    """Restore a workspace persisted by :func:`save_workspace`.

    The restored workspace starts a fresh parse index, so its first edit
    parses the whole source.
    """
    from repro.workspace.session import Workspace, WorkspaceError

    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError) as exc:
        raise WorkspaceError(f"{path}: not a {FORMAT} file ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise WorkspaceError(f"{path}: not a {FORMAT} file")
    if payload.get("version") != VERSION:
        raise WorkspaceError(
            f"{path}: workspace format version {payload.get('version')!r} "
            f"is not supported (expected {VERSION})"
        )
    workspace = payload["workspace"]
    if not isinstance(workspace, Workspace):
        raise WorkspaceError(f"{path}: malformed workspace payload")
    workspace._generator.algebra.telemetry = current_recorder()
    workspace._parse_index = ParseIndex()
    return workspace
