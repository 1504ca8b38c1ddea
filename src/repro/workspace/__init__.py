"""Session-oriented workspaces: incremental re-checking as a service.

The one-shot pipeline (:mod:`repro.tool.pipeline`) re-parses, re-walks,
and re-solves from scratch on every call.  This package keeps all of that
state *warm* across edits:

* :class:`Workspace` (:mod:`repro.workspace.session`) -- the long-lived
  session object: open a program, edit it, re-check it, pin annotation
  slots interactively;
* :mod:`repro.workspace.diff` / :mod:`repro.workspace.regen` --
  declaration-level structural diffing and the incremental constraint
  re-generation built on it;
* :mod:`repro.workspace.persist` -- JSON snapshots of the source,
  options and pins (:func:`save_workspace` / :func:`load_workspace`);
* :mod:`repro.workspace.rpc` -- the JSON-RPC serving front end behind
  ``p4bid serve``.
"""

from repro.workspace.diff import UnitPlan, UnitState, diff_program, program_units
from repro.workspace.persist import load_workspace, save_workspace
from repro.workspace.regen import IncrementalGenerator, RegenStats
from repro.workspace.session import Workspace, WorkspaceError

__all__ = [
    "Workspace",
    "WorkspaceError",
    "IncrementalGenerator",
    "RegenStats",
    "UnitPlan",
    "UnitState",
    "diff_program",
    "program_units",
    "save_workspace",
    "load_workspace",
]
