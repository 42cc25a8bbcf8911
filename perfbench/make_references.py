"""Write references.json: the outputs of every benchmark operation, per input variant.

Run once from the root of a checkout at the commit whose outputs are the
reference (the benchmark compares later commits against them):

    python3 perfbench/make_references.py [workload ...]

Workloads not named keep their stored references.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import VARIANTS, WORKLOADS  # noqa: E402


def references(name: str) -> dict:
    workdir = ROOT / ".perfbench" / f"references-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = {}
        for variant in range(VARIANTS):
            wl = WORKLOADS[name](ROOT, workdir, variant)
            wl.generate()
            refs = {}
            for key, call in wl.calls():
                refs[key] = wl.outputs(key, call())
                problem = wl.hard_check(key, refs[key])
                if problem:
                    raise SystemExit(f"{name} variant {variant} {key}: {problem}")
            out[str(variant)] = refs
            print(f"{name} variant {variant}: {len(refs)} operations", flush=True)
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(names):
    path = HERE / "references.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    for name in names or list(WORKLOADS):
        stored[name] = references(name)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
