"""Fresh-process measurements for perfbench/run.py.

    python3 perfbench/child.py setup FILE...
        import afnd.cli and parse every FILE; prints {"setup_s": ...}
    python3 perfbench/child.py pass WORKLOAD SEED
        one pass over the workload's ops; prints {"rss_kb": ..., "outcomes": [...]}

Only `sys` and `time` are imported before the set-up clock starts, so the
set-up time covers every module that afnd itself pulls in.
"""

import sys
import time


def setup(files: list[str], t0: float) -> dict:
    import afnd.cli

    for path in files:
        with open(path, encoding="utf-8") as fh:
            afnd.cli.parse_scenario(fh.read())
    return {"setup_s": time.perf_counter() - t0}


def one_pass(workload: str, seed: int) -> dict:
    import resource

    import afnd.cli
    import workloads

    wl = workloads.build(workload, seed, workloads.INPUTS)
    outcomes = [op.run(afnd.cli)[0] for op in wl.ops]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rss_kb": rss, "outcomes": outcomes}


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import os  # loaded by the interpreter at start-up already

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    if argv[:1] == ["setup"]:
        result = setup(argv[1:], t0)
    elif argv[:1] == ["pass"] and len(argv) == 3:
        result = one_pass(argv[1], int(argv[2]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    import json

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
