"""Byte identity of the ABM output files against recorded sha256 hashes.

``golden/abm_outputs.json`` holds the sha256 of every DOT and CSV file
written by the shipped voter input (evolution step 'all' and 'one',
directed and undirected) and the shipped flocking input, at seeds 1-3.
Regenerate it only for an intended change of output bytes::

    PYTHONPATH=src python tests/test_abm_outputs.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from simflow import agents, documents as docs, graphs, library_path
from simflow.params import RunConfig, parse_input_file

LIBRARY = library_path()
GOLDEN = Path(__file__).parent / "golden" / "abm_outputs.json"
SEEDS = (1, 2, 3)


def _load(rel, **changes):
    obj = json.loads((LIBRARY / rel).read_text(encoding="utf-8"))
    for key, value in changes.items():
        if key == "directed":
            obj["graph"]["directed"] = value
        else:
            obj[key] = value
    return docs.document_from_json(obj)


def _digests(outputs):
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in outputs}


def output_hashes(out_root):
    """{run label: {file name: sha256}} for every run in the golden set."""
    out_root = Path(out_root)
    result = {}
    voter_model = docs.load_document(LIBRARY / "models/voter_model.json")
    voter_values = parse_input_file(LIBRARY / "inputs/voter.input")
    for mode in ("all", "one"):
        for directed in (True, False):
            problem_json = dict(evolution_step=mode, directed=directed)
            for seed in SEEDS:
                label = f"voter-{mode}-{'directed' if directed else 'undirected'}-{seed}"
                problem = _load("problems/voter_problem.json", **problem_json)
                config = RunConfig(dict(voter_values), output_dir=out_root / label, seed=seed)
                report = graphs.run_graph_problem(problem, voter_model, config)
                result[label] = _digests(report.outputs)
    flocking_model = docs.load_document(LIBRARY / "models/flocking_model.json")
    flocking_values = parse_input_file(LIBRARY / "inputs/flocking.input")
    for seed in SEEDS:
        label = f"flocking-{seed}"
        problem = _load("problems/flocking_problem.json")
        config = RunConfig(dict(flocking_values), output_dir=out_root / label, seed=seed)
        report = agents.run_spatial_problem(problem, flocking_model, config)
        result[label] = _digests(report.outputs)
    return result


def test_abm_output_bytes_match_golden_hashes(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = output_hashes(tmp_path)
    assert sorted(actual) == sorted(expected)
    for label in expected:
        assert actual[label] == expected[label], label


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = output_hashes(tmp)
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(h) for h in hashes.values())} hashes to {GOLDEN}", file=sys.stderr)
