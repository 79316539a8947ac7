"""Command-line entry point: validate, discretize, run, export, graph-gen.

Exit codes: 0 success, 1 validation diagnostics or malformed documents,
2 runtime faults, 64 usage errors.  The documents directory used to
resolve model references comes from --docs, the SIMFLOW_DOCS environment
variable, or the directory of the document being processed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import algorithm as alg
from . import documents as docs
from . import expr
from .agents import AgentError, run_spatial_problem
from .graphs import GraphError, generate_graph, run_graph_problem, save_edge_list, write_dot
from .grid import GridRuntimeError, run as run_grid
from .kernel import LoweringError, build_kernel
from .params import ParamError, RunConfig, parse_input_file

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2
EXIT_USAGE = 64


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit code for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}") from None


def _build_parser():
    parser = _ArgumentParser(prog="simflow", description=__doc__.splitlines()[0])
    parser.add_argument("--docs", help="documents directory for model references")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p = sub.add_parser("validate", help="check a document")
    p.add_argument("document")
    p.add_argument("--json", action="store_true", help="machine-readable diagnostics")

    p = sub.add_parser("discretize", help="lower a PDE problem with a policy")
    p.add_argument("problem")
    p.add_argument("policy")
    p.add_argument("-o", "--output", help="output path (default stdout)")

    p = sub.add_parser("run", help="execute a problem")
    p.add_argument("document")
    p.add_argument("--params", help="problem.input parameter file")
    p.add_argument("--policy", help="discretization policy (PDE problems)")
    p.add_argument("-o", "--output", help="output directory")
    p.add_argument("--seed", type=int, help="random seed override")

    p = sub.add_parser("export-latex", help="render a document as LaTeX")
    p.add_argument("document")
    p.add_argument("-o", "--output", help="output path (default stdout)")

    p = sub.add_parser("graph-gen", help="generate a graph edge-list file")
    p.add_argument("-o", "--output", required=True, help="edge-list output path")
    p.add_argument("--distribution", default="random",
                   choices=["random", "scale_free", "circular"])
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--edges", type=int, default=0)
    p.add_argument("--attach", type=int, default=2)
    p.add_argument("--min-in-degree", type=int, default=0)
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dot", help="also write a DOT rendering here")
    return parser


def _docs_dir(args, document_path):
    if args.docs:
        return Path(args.docs)
    env = os.environ.get("SIMFLOW_DOCS")
    if env:
        return Path(env)
    return Path(document_path).resolve().parent


def _print_diagnostics(diags, as_json):
    if as_json:
        print(json.dumps([{"severity": d.severity, "path": d.path,
                           "message": d.message} for d in diags], indent=2))
    else:
        for d in diags:
            print(str(d), file=sys.stderr)


def _cmd_validate(args):
    try:
        doc = docs.load_document(args.document)
    except docs.DocumentFormatError as exc:
        diags = getattr(exc, "diagnostics", None) or [
            docs.Diagnostic("error", args.document, str(exc))]
        _print_diagnostics(diags, args.json)
        return EXIT_INVALID
    diags = docs.validate(doc, docs_dir=_docs_dir(args, args.document))
    _print_diagnostics(diags, args.json)
    if any(d.severity == "error" for d in diags):
        return EXIT_INVALID
    if not args.json:
        print(f"{args.document}: ok")
    return EXIT_OK


def _resolve_model(problem, docs_dir):
    kinds = {
        "generic_pde_problem": ("generic_pde_model",),
        "abm_graph_problem": ("abm_graph_model",),
        "abm_spatial_problem": ("abm_spatial_model",),
    }[problem.kind]
    return docs.resolve_reference(problem.model_id, docs_dir, kinds)


def _cmd_discretize(args):
    problem = docs.load_document(args.problem)
    policy = docs.load_document(args.policy)
    if not isinstance(problem, docs.GenericPdeProblem):
        raise docs.DocumentError(f"{args.problem} is not a PDE problem document")
    if not isinstance(policy, docs.DiscretizationPolicy):
        raise docs.DocumentError(f"{args.policy} is not a discretization policy")
    model = _resolve_model(problem, _docs_dir(args, args.problem))
    discretized, _ = build_kernel(problem, policy, model)
    text = docs.dump_document(discretized)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_run(args):
    doc = docs.load_document(args.document)
    config = RunConfig(parse_input_file(args.params) if args.params else {},
                       output_dir=args.output, seed=args.seed)
    docs_dir = _docs_dir(args, args.document)

    if isinstance(doc, docs.DiscretizedProblem):
        _, kernel = build_kernel(doc.problem, doc.policy, doc.model)
        report = run_grid(doc.problem, kernel, config)
    elif isinstance(doc, docs.GenericPdeProblem):
        if not args.policy:
            raise docs.DocumentError("a PDE problem needs --policy (or discretize first)")
        policy = docs.load_document(args.policy)
        model = _resolve_model(doc, docs_dir)
        _, kernel = build_kernel(doc, policy, model)
        report = run_grid(doc, kernel, config)
    elif isinstance(doc, docs.AbmProblem):
        model = _resolve_model(doc, docs_dir)
        errors = [d for d in docs.validate(doc, docs_dir=docs_dir) + docs.validate(model)
                  if d.severity == "error"]
        if errors:
            _print_diagnostics(errors, False)
            return EXIT_INVALID
        runner = run_graph_problem if doc.family == "graph" else run_spatial_problem
        report = runner(doc, model, config)
    else:
        raise docs.DocumentError(f"document kind '{doc.kind}' is not runnable")
    print(json.dumps(report.to_json(), indent=2))
    return EXIT_OK


def _cmd_export_latex(args):
    doc = docs.load_document(args.document)
    text = docs.export_latex(doc)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_graph_gen(args):
    spec = docs.GraphSpec(source="generated", directed=not args.undirected,
                          distribution=args.distribution, vertices=args.vertices,
                          edges=args.edges, attach=args.attach,
                          min_in_degree=args.min_in_degree)
    graph = generate_graph(spec, args.seed)
    save_edge_list(graph, args.output)
    if args.dot:
        write_dot(graph, {}, args.dot)
    print(f"wrote {graph.n} vertices, {graph.n_edges} edges to {args.output}")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "discretize": _cmd_discretize,
    "run": _cmd_run,
    "export-latex": _cmd_export_latex,
    "graph-gen": _cmd_graph_gen,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_USAGE
        return exc.code if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (docs.DocumentError, LoweringError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (GridRuntimeError, GraphError, AgentError, ParamError, OSError,
            expr.ExprError, alg.AlgorithmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
