"""``python -m repro.analysis verify|lint|all`` — the analysis driver.

* ``verify`` rebuilds the example specializations (quickstart's RMIN,
  parallel_matrix's MULTIPLY) plus a canonical server residual from
  scratch and runs the equivalence verifier over each;
* ``lint`` runs the concurrency/discipline rules over ``src/repro``
  and the knob contract over the docs;
* ``all`` runs both.

Exit status is 0 iff there are zero non-suppressed findings.  Pass
``--json PATH`` to archive the machine-readable report (CI uploads it
as an artifact).
"""

import argparse
import importlib.util
import sys
from pathlib import Path

from repro.analysis.findings import Report


def _repo_root():
    """The repository root: the directory holding ``src/repro``."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "src" / "repro").is_dir():
            return parent
    # installed without a source tree: fall back to the cwd.
    return Path.cwd()


def _example_const(root, script, const):
    """Load a module-level constant from an example script, or None."""
    path = root / "examples" / script
    if not path.exists():
        return None
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, const, None)


#: fallback interface when examples/ is not shipped alongside src/.
CANONICAL_IDL = """
const MAXN = 64;

struct intarr {
    int vals<MAXN>;
};

program XFER_PROG {
    version XFER_VERS {
        intarr SENDRECV(intarr) = 1;
    } = 1;
} = 0x20005555;
"""

CANONICAL_IMPL = """
void sendrecv_impl(struct intarr *args, struct intarr *res)
{
    int i;
    res->vals_len = args->vals_len;
    for (i = 0; i < args->vals_len; i++) {
        res->vals[i] = args->vals[i] + 1;
    }
}
"""


def _verify_targets(root):
    """(name, idl, impl, proc, arg_lens, res_lens, server) to verify."""
    targets = []
    rmin = _example_const(root, "quickstart.py", "RMIN_IDL")
    if rmin:
        targets.append(("examples/quickstart.py RMIN", rmin, None,
                        "RMIN", {"vals": 4}, {}, False))
    matvec = _example_const(root, "parallel_matrix.py", "MATVEC_IDL")
    block = _example_const(root, "parallel_matrix.py", "BLOCK") or 250
    if matvec:
        targets.append(("examples/parallel_matrix.py MULTIPLY", matvec,
                        None, "MULTIPLY", {"vals": block},
                        {"vals": block}, False))
    # a freshly built *server* residual, end to end.
    targets.append(("canonical intarr server", CANONICAL_IDL,
                    CANONICAL_IMPL, "SENDRECV", {"vals": 8}, {"vals": 8},
                    True))
    if not targets:
        targets.append(("canonical intarr client", CANONICAL_IDL,
                        CANONICAL_IMPL, "SENDRECV", {"vals": 8},
                        {"vals": 8}, False))
    return targets


def run_verify(report, root):
    from repro.analysis.verify import (verify_client_spec,
                                       verify_server_residual)
    from repro.specialized import SpecializationPipeline

    findings = []
    checked = 0
    for (name, idl, impl, proc, arg_lens, res_lens,
         server) in _verify_targets(root):
        # verification is the point here: build unjudged, judge openly.
        pipeline = SpecializationPipeline(
            idl, impl_sources=[impl] if impl else None, verify=False)
        if server:
            spec = pipeline.specialize_server(proc, arg_lens=arg_lens,
                                              res_lens=res_lens)
            found = verify_server_residual(
                pipeline, spec.result, pipeline.find_proc(proc),
                arg_lens, res_lens, spec.bufsize, module=spec._module)
        else:
            spec = pipeline.specialize_client(proc, arg_lens=arg_lens,
                                              res_lens=res_lens)
            found = verify_client_spec(pipeline, spec)
        for finding in found:
            finding.context.setdefault("target", name)
        findings.extend(found)
        checked += 1
        print(f"  verified {name}: "
              f"{'OK' if not found else f'{len(found)} finding(s)'}")
    report.extend("verify", findings, {"targets": checked})


def run_lint(report, root):
    from repro.analysis.lint import run_lint as lint

    findings, stats = lint(root)
    report.extend("lint", findings, stats)
    print(f"  linted {stats['modules']} modules: "
          f"{stats['active']} active finding(s)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("verify", "lint", "all"),
                        help="which pass(es) to run")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the JSON report here")
    parser.add_argument("--root", metavar="DIR", default=None,
                        help="repository root (default: auto-detect)")
    parser.add_argument("--verbose", action="store_true",
                        help="show suppressed findings too")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve() if args.root else _repo_root()
    report = Report()
    if args.command in ("verify", "all"):
        print("verify: residual-equivalence pass")
        run_verify(report, root)
    if args.command in ("lint", "all"):
        print("lint: concurrency/discipline pass")
        run_lint(report, root)
    print()
    print(report.render_text(verbose=args.verbose))
    if args.json:
        report.write_json(args.json)
        print(f"JSON report written to {args.json}")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
