"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json`` with, per workload, the outputs of its
reference-size pass at ``workloads.REF_SEED`` and of the items of its full
pass whose inputs do not depend on the seed (the heavy deep_trials group).
Re-record only for a change that is meant to alter the package's outputs,
and say so.
"""

import json
import os
import sys
import tempfile

import run  # pins the BLAS threads before numpy is imported


def main():
    run._import_package()
    import workloads

    doc = {"seed": workloads.REF_SEED, "rtol": workloads.REF_RTOL, "workloads": {}}
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for name in run.NAMES:
            def build(seed, size):
                return workloads.build(name, seed, size,
                                       os.path.join(workdir, f"{name}-{size}-{seed}"))

            full = build(workloads.REF_SEED + 1, "full")
            fixed = set(full.input_keys()) & set(build(workloads.REF_SEED + 2, "full").input_keys())
            items = build(workloads.REF_SEED, "reference").run_pass().items
            if fixed:
                items += [it for it in full.run_pass().items
                          if any(it.key == k or it.key.startswith(k + ":") for k in fixed)]
            for it in items:
                if it.failure is not None:
                    sys.exit(f"{name}: {it.key} failed: {it.failure}")
            doc["workloads"][name] = {it.key: it.output for it in items}
            print(f"{name}: {len(items)} outputs", flush=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
