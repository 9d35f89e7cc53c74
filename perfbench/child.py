"""Fresh-interpreter side of the ``noc`` workload.

    python3 perfbench/child.py probe fig7 fig8a
    python3 perfbench/child.py pass 7 fig7 fig8a

Both modes ``import repro``, build the named scenarios and print
``ready``; the parent times set-up from starting the interpreter to that
line.  ``probe`` then exits.  ``pass`` then reads commands from standard
input, answering each with one JSON line: ``cold`` runs the scenarios
once, cold, at the given seed (see :func:`perfbench.noc.pass_report`);
``warm N`` runs N warm passes on the first cold pass's engines and
returns their times; ``exit`` returns the process's peak RSS and exits.
"""

import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main() -> int:
    mode = sys.argv[1]
    seed = int(sys.argv[2]) if mode == "pass" else None
    names = sys.argv[3:] if mode == "pass" else sys.argv[2:]

    from repro import build_scenario

    for name in names:
        build_scenario(name)
    print("ready", flush=True)
    if mode != "pass":
        return 0

    from perfbench import noc

    first = None
    for line in sys.stdin:
        command = line.split()
        if command == ["cold"]:
            cold = noc.cold_pass(names, seed)
            first = first or cold
            reply = noc.pass_report(cold)
        elif command[:1] == ["warm"] and first is not None:
            samples, problems = noc.warm_passes(seed, first, int(command[1]))
            reply = {"samples": samples, "problems": problems}
        else:
            break
        print(json.dumps(reply), flush=True)
    print(json.dumps({"peak_rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
