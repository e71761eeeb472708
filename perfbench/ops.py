"""Running one benchmark operation through the package's public entry points.

``execute`` is the timed region of an operation: it calls
``affwhit.cli.main`` in-process (stdout, stderr and the genericity
``UserWarning``s captured) or calls ``solve`` for one J on the module of a
J-scan, building the module on the scan's first J.  Everything that checks
the outputs lives in ``gate`` and runs after the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import warnings
from dataclasses import dataclass
from typing import Optional

from affwhit import cli
from affwhit.engine import TensorModule, Truncation, WhittakerModule


@dataclass
class Raw:
    """Unchecked outputs of one operation."""

    rc: Optional[int] = None
    stdout: str = ""
    report_path: Optional[str] = None
    result: Optional[object] = None  # SolveResult of a solve op
    error: Optional[str] = None
    warnings: int = 0


def prepare(ops, workdir):
    """Write each CLI operation's config file; part of set-up, not timed."""
    for n, op in enumerate(ops):
        if op["kind"] == "solve":
            continue
        op["config_path"] = os.path.join(workdir, f"op{n}.json")
        with open(op["config_path"], "w", encoding="utf-8") as fh:
            json.dump(op["config"], fh)
        if op["kind"] != "check-seq":
            op["report_path"] = os.path.join(workdir, f"op{n}.report.json")


def build_module(cfg, tensor):
    """A fresh module for a config, through ``cli.build_spec``."""
    if tensor:
        return TensorModule(cli.build_spec(cfg["left"]), cli.build_spec(cfg["right"]))
    return WhittakerModule(cli.build_spec(cfg))


def execute(op, modules) -> Raw:
    """Run one op; ``modules`` holds the J-scan modules alive within a pass."""
    raw = Raw()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            if op["kind"] == "solve":
                module = None if op["first"] else modules.get(op["module"])
                if module is None:
                    module = modules[op["module"]] = build_module(op["config"], op["tensor"])
                if op["last"]:
                    del modules[op["module"]]
                raw.result = module.solve(Truncation(op["D"], op["E"], op["J"]))
            else:
                argv = [op["kind"], "--config", op["config_path"]]
                if "report_path" in op:
                    argv += ["--out", op["report_path"]]
                    raw.report_path = op["report_path"]
                raw.rc = cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            raw.error = f"{type(exc).__name__}: {exc}"
        raw.warnings = len(caught)
    raw.stdout = out.getvalue()
    if raw.rc == 1 and raw.error is None:
        raw.error = "exit 1: " + err.getvalue().strip()
    return raw
