"""Time what a simflow CLI user pays before the runtime starts.

Run in a fresh interpreter:

    python3 setup_probe.py SRC_DIR PROBLEM MODEL [POLICY]

It imports ``simflow.cli``, loads and validates the documents and, given a
policy, lowers the problem with ``kernel.build_kernel``.  It stops before
the runtime entry call and prints one JSON object of phase times in
seconds, with the reference loop timed twice right after (before would
import numpy ahead of the timed import).  Only the standard library is
imported before the clock starts.
"""

import json
import os
import sys
import time

from calibrate import reference_loop


def main(argv):
    src, problem_path, model_path, *policy_path = argv
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import simflow.cli  # noqa: F401  (the import is what is timed)
    from simflow import documents as docs, kernel
    t1 = time.perf_counter()
    problem = docs.load_document(problem_path)
    model = docs.load_document(model_path)
    policy = docs.load_document(policy_path[0]) if policy_path else None
    t2 = time.perf_counter()
    diagnostics = docs.validate(problem, docs_dir=os.path.dirname(model_path))
    diagnostics += docs.validate(model)
    if policy is not None:
        diagnostics += docs.validate(policy)
    errors = [str(d) for d in diagnostics if d.severity == "error"]
    t3 = time.perf_counter()
    if policy is not None:
        kernel.build_kernel(problem, policy, model)
    t4 = time.perf_counter()
    loops = [reference_loop(), reference_loop()]
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    print(json.dumps({"cli.import_s": t1 - t0, "documents.load_s": t2 - t1,
                      "documents.validate_s": t3 - t2, "kernel.build_kernel_s": t4 - t3,
                      "setup_s": t4 - t0, "loops_s": loops, "simflow": simflow.cli.__file__}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
