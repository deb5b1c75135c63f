"""Record the output goldens from the current program into perfbench/data.

    python3 perfbench/record_goldens.py

``sweep_goldens.json``: per catalog entry, the catalog's expected tags, the
``bt_flat`` verdict of ``classify(m, t=1.0)``, the bolt count and rounded
slopes, and the kind and self-intersection of both ends.  Distances are not
recorded here; they are checked against ``reference.json``.  Without a
deadline, the two ``hirzebruch`` ends take minutes on the seed.

``cli_goldens.json``: stdout and the ``--out`` file of every cli command.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import checks
import run
import workloads


def record_sweep() -> dict:
    import u2metrics as u
    from u2metrics.catalog import catalog_entry, catalog_get, catalog_names

    out = {}
    for name in catalog_names():
        m = catalog_get(name)
        report = u.classify(m, t=workloads.CATALOG_T)
        out[name] = {
            "expected_tags": list(catalog_entry(name).expected_tags),
            "bt_flat": report.verdict("bt_flat"),
            "bolts": checks.summarize_bolts(u.find_bolts(m)),
            "lower": checks.summarize_end(u.classify_end(m, "lower")),
            "upper": checks.summarize_end(u.classify_end(m, "upper")),
        }
        print(name, out[name], flush=True)
    return out


def record_cli() -> dict:
    workdir = os.path.join(run.WORK, f"record-{os.getpid()}")
    inputs = workloads.build_inputs("cli", 0, workdir)
    env = workloads.cli_env(run.ROOT)
    templates = {name: argv for name, argv, _ in workloads.CLI_COMMANDS}
    out = {}
    for op in workloads.operations("cli", inputs):
        proc = subprocess.run(workloads.cli_argv(op), capture_output=True, text=True, env=env, cwd=run.ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"{op.label}: exit {proc.returncode}: {proc.stderr}")
        out[op.label] = {"argv": list(templates[op.label]), "stdout": proc.stdout}
        if op.out_file:
            with open(os.path.join(inputs["dirs"]["out"], op.out_file)) as handle:
                out[op.label]["out"] = handle.read()
        print(op.label, "recorded", flush=True)
    run._rmtree(workdir)
    return out


def _write(name: str, doc: dict):
    with open(os.path.join(checks.DATA, name), "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main() -> int:
    run.import_program()
    _write("cli_goldens.json", record_cli())
    _write("sweep_goldens.json", record_sweep())
    return 0


if __name__ == "__main__":
    sys.exit(main())
