"""Record reference.json: what the default-seed, full-size runs must produce.

    python3 benchmarks/make_reference.py

For the agent workloads it stores the sha256 of every output file; for
the grid workloads a subsample of the final fields, which the benchmark
compares with a tolerance.  Rerun it only when a change is meant to alter
the outputs, and say so in the change.
"""

import json
import shutil

import run


def main():
    run.import_program()
    from workloads import DEFAULT_SEED, Prepared, hash_outputs, subsample
    reference = {}
    for name, workload in run.WORKLOADS.items():
        prepared = Prepared(workload, "full")
        out_dir = run.OUT / "make_reference" / name
        report = prepared.call(prepared.config(DEFAULT_SEED, out_dir))
        hashes = hash_outputs(out_dir)
        prepared.check_outputs(report, out_dir)
        if workload.runtime == "grid":
            reference[name] = {"fields": {f: subsample(v).tolist()
                                          for f, v in report.final_fields.items()}}
        else:
            reference[name] = {"sha256": hashes}
        print(f"{name}: {len(hashes)} output files")
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(run.OUT / "make_reference")


if __name__ == "__main__":
    main()
