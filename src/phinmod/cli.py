"""Command-line front end.

Subcommands:
  build <file> [--out PATH]              parse an instance, build the module,
                                         run every check, emit a JSON report
  count <p> <a4> <a6>                    point count and trace of one curve
  fuzz --seed N --count N [--out-dir D]  seeded random instances, all checks

Exit codes: 0 all checks pass; 1 a mathematical check failed on well-formed
input; 2 parse/schema/validation error.  Reports are byte-identical across
runs of the same instance; the time of the request, and of writing its
report, goes to stderr only.  Points of an elliptic component are counted
for p up to weil_data.DEFAULT_POINT_BOUND (10^4); a larger p exits 2.
"""

import argparse
import os
import sys
import time

from .builders import (
    CurveInstance,
    build_from_av,
    build_from_curve,
    check_curve_jacobian_agreement,
)
from .errors import ValidationError
from .fuzz import instance_stream
from .io_formats import (
    Report,
    build_report,
    dump_json,
    failed_checks,
    load_instance,
    report_all_pass,
)
from .phin_module import hodge_newton, verify_monodromy_duality, verify_relations
from .weil_data import DEFAULT_POINT_BOUND, EllipticCurveSpec, count_points

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def run_checks(inst, bound: int) -> Report:
    """Build the module and assemble its full report."""
    if isinstance(inst, CurveInstance):
        module = build_from_curve(inst, bound)
        agreement = check_curve_jacobian_agreement(inst, module)
    else:
        module = build_from_av(inst)
        agreement = None
    relations = verify_relations(module)
    polygons = hodge_newton(module)
    duality = verify_monodromy_duality(module)
    return build_report(inst, module, relations, polygons, duality, agreement)


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    try:
        inst = load_instance(args.file)
        report = run_checks(inst, DEFAULT_POINT_BOUND)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    t_write = time.perf_counter()
    text = dump_json(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    else:
        sys.stdout.write(text)
    t_end = time.perf_counter()
    print(f"build: {t_end - t0:.3f}s (write {t_end - t_write:.3f}s)", file=sys.stderr)
    return EXIT_OK if report_all_pass(report) else EXIT_CHECK_FAILED


def cmd_count(args) -> int:
    try:
        spec = EllipticCurveSpec(args.p, args.a4, args.a6)
        n, a = count_points(spec, DEFAULT_POINT_BOUND)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(f"N={n} a={a}")
    return EXIT_OK


def cmd_fuzz(args) -> int:
    try:
        if args.count < 0:
            raise ValidationError(f"--count = {args.count}: must be at least 0")
        if not os.path.isdir(args.out_dir):
            raise ValidationError(f"--out-dir = {args.out_dir}: not a directory")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    passed = 0
    failed = 0
    for idx, inst in enumerate(instance_stream(args.seed, args.count)):
        failures = failed_checks(run_checks(inst, DEFAULT_POINT_BOUND))
        if not failures:
            passed += 1
        else:
            failed += 1
            dump_path = os.path.join(args.out_dir, f"fuzz_failure_{idx:04d}.json")
            try:
                with open(dump_path, "w", encoding="utf-8") as fh:
                    fh.write(dump_json(inst))
            except OSError as exc:
                print(f"error: cannot write {dump_path} in --out-dir: {exc}", file=sys.stderr)
                return EXIT_BAD_INPUT
            print(
                f"seed {args.seed} instance {idx} failed {', '.join(failures)}; "
                f"dumped to {dump_path}",
                file=sys.stderr,
            )
    print(f"fuzz: {passed}/{args.count} instances passed (seed={args.seed})")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phinmod",
        description="Exact (phi, N)-modules of semistable curves and abelian varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a module from an instance file")
    p_build.add_argument("file", help="instance JSON file")
    p_build.add_argument("--out", help="write the report here instead of stdout")
    p_build.set_defaults(func=cmd_build)

    p_count = sub.add_parser("count", help="count points of y^2 = x^3 + a4 x + a6 over F_p")
    p_count.add_argument("p", type=int)
    p_count.add_argument("a4", type=int)
    p_count.add_argument("a6", type=int)
    p_count.set_defaults(func=cmd_count)

    p_fuzz = sub.add_parser("fuzz", help="run all checks on seeded random instances")
    p_fuzz.add_argument("--seed", type=int, required=True)
    p_fuzz.add_argument("--count", type=int, required=True)
    p_fuzz.add_argument("--out-dir", default=".", help="where failing instances are dumped")
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
