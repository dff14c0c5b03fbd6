"""Command line interface.

Verbs:
  gen           sample a wide generator set and write it as JSON
  metrics       scalar metrics of a stored generator set
  verify        run the verification campaign (exit 1 on any failed check)
  replay-proof  replay the area-minimality argument on one instance
  schramm       volume lower-bound table for constant-width bodies
  render        SVG figure of a stored instance

Exit codes: 0 success, 1 failed verification checks, 2 bad input or usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import ballbody, campaign, diskpoly, oracles, proofreplay, svgfig
from .sphere import DegeneracyError, GeneratorSet, sample_wide_generator, set_geo_tol

__all__ = ["build_parser", "entrypoint", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballpoly",
        description="Intersections of congruent balls on spheres: exact metrics "
                    "and a numerical verification harness.")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the geometric tolerance (default 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="sample a wide generator set")
    p_gen.add_argument("--dim", type=int, default=2, help="sphere dimension (default 2)")
    p_gen.add_argument("--radius", type=float, required=True,
                       help="ball radius in (0, pi/2]")
    p_gen.add_argument("--n-points", type=int, default=4, help="number of generators")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--reuleaux", action="store_true",
                       help="emit the Reuleaux triangle (d=2) or regular simplex instead")
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")

    p_met = sub.add_parser("metrics", help="scalar metrics of a stored instance")
    p_met.add_argument("input", help="generator-set JSON file")
    p_met.add_argument("--seed", type=int, default=0, help="seed for sampled estimators")
    p_met.add_argument("--format", choices=("json", "csv"), default="json")
    p_met.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run the verification campaign")
    p_ver.add_argument("--quick", action="store_true", help="small smoke corpus")
    p_ver.add_argument("--seed", type=int, default=None, help="campaign seed override")
    p_ver.add_argument("--out-dir", default=None, help="write JSONL/CSV reports here")
    p_ver.add_argument("--config", default=None, help="campaign config JSON file")
    p_ver.add_argument("--progress", action="store_true", help="print one line per instance")

    p_rep = sub.add_parser("replay-proof", help="replay the area argument on an instance")
    p_rep.add_argument("input", help="generator-set JSON file")
    p_rep.add_argument("--samples", type=int, default=4000,
                       help="containment/disjointness sample count")
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--out", default=None, help="write the trace JSON here")
    p_rep.add_argument("--svg", default=None, help="render the cap construction here")

    p_sch = sub.add_parser("schramm", help="volume lower-bound table")
    p_sch.add_argument("--max-dim", type=int, default=10)
    p_sch.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p_ren = sub.add_parser("render", help="SVG figure of a stored instance")
    p_ren.add_argument("input", help="generator-set JSON file")
    p_ren.add_argument("--projection", choices=("orthographic", "stereographic"),
                       default="orthographic")
    p_ren.add_argument("--out", required=True, help="SVG output path")

    return parser


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    if args.reuleaux:
        if args.dim == 2:
            gens = diskpoly.reuleaux_triangle(args.radius)
        else:
            gens = ballbody.simplex_body(args.dim, args.radius).generator_set()
    else:
        gens = sample_wide_generator(args.dim, args.radius, args.n_points, args.seed)
    _write_text(json.dumps(gens.to_json(), sort_keys=True), args.out)
    return 0


def _cmd_metrics(args) -> int:
    gens = GeneratorSet.load(args.input)
    if gens.dim == 2:
        met = diskpoly.metrics(gens)
        payload = met.to_json()
    else:
        rin, _ = ballbody.inradius_nd(gens)
        width, _ = ballbody.width_nd(gens)
        hull_diam, _ = ballbody.hull_diameter(gens, seed=args.seed)
        payload = {
            "inradius": rin,
            "width": width,
            "hull_diameter": hull_diam,
            "circumradius": ballbody.circumradius_minimax(gens.points)[0],
        }
    if args.format == "json":
        _write_text(json.dumps(payload, sort_keys=True), args.out)
    else:
        keys = sorted(payload)
        lines = ",".join(keys) + "\n" + ",".join(f"{payload[k]:.12g}" for k in keys) + "\n"
        _write_text(lines, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = campaign.CampaignConfig.from_json(json.load(fh))
    else:
        config = campaign.default_config(quick=args.quick)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)

    progress = None
    if args.progress:
        def progress(rep):
            state = "ok" if rep.passed else "FAIL"
            print(f"{rep.instance_id}: {state} ({rep.runtime_ms:.0f} ms)")

    reports = campaign.run_campaign(config, progress=progress)
    if args.out_dir is not None:
        paths = campaign.write_reports(reports, config, args.out_dir)
        print(f"wrote {paths['jsonl']}, {paths['summary']}, {paths['config']}")

    by_cell: dict[str, list] = {}
    for rep in reports:
        by_cell.setdefault(rep.instance_id.split("-")[0], []).append(rep)
    for cell_id, cell_reports in sorted(by_cell.items()):
        first = cell_reports[0]
        n_fail = sum(1 for r in cell_reports if not r.passed)
        print(f"{cell_id}: dim={first.dim} radius={first.radius:.6g} "
              f"instances={len(cell_reports)} failed={n_fail}")
    failed = [rep for rep in reports if not rep.passed]
    if failed:
        for rep in failed[:10]:
            print(f"FAILED {rep.instance_id}: {', '.join(rep.failed_checks)}")
        if len(failed) > 10:
            print(f"... and {len(failed) - 10} more")
        print(f"FAIL: {len(failed)} of {len(reports)} instances violated a check")
        return 1
    print(f"PASS: {len(reports)} instances, all checks satisfied")
    return 0


def _cmd_replay(args) -> int:
    gens = GeneratorSet.load(args.input)
    trace = proofreplay.replay_instance(gens, n_samples=args.samples, seed=args.seed)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(trace.to_json(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.svg is not None:
        if trace.branch == "triangle":
            dom = proofreplay.build_cap_domain(gens)
            svgfig.render_svg(dom, generators=gens, path=args.svg)
        else:
            svgfig.render_svg(diskpoly.boundary_structure(gens),
                              generators=gens, path=args.svg)
    print(f"branch: {trace.branch}")
    for name, chk in trace.checks.items():
        state = "ok" if chk["passed"] else "FAIL"
        print(f"  {name}: {state} (margin {chk['margin']:.3e}, tol {chk['tol']:.1e})")
    if not trace.passed:
        print("FAIL: replay checks violated")
        return 1
    print("PASS: all replay checks satisfied")
    return 0


def _cmd_schramm(args) -> int:
    if args.max_dim < 3:
        raise ValueError(f"--max-dim must be >= 3, got {args.max_dim}")
    rows = []
    for d in range(3, args.max_dim + 1):
        bound, reference = ballbody.schramm_bound(d)
        rows.append({"dim": d, "bound": bound, "reference": reference,
                     "ratio": bound / reference})
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
    elif args.format == "csv":
        print("dim,bound,reference,ratio")
        for row in rows:
            print(f"{row['dim']},{row['bound']:.12g},{row['reference']:.12g},"
                  f"{row['ratio']:.12g}")
    else:
        print(f"{'dim':>4} {'bound':>16} {'reference':>16} {'ratio':>10}")
        for row in rows:
            print(f"{row['dim']:>4} {row['bound']:>16.10g} "
                  f"{row['reference']:>16.10g} {row['ratio']:>10.6f}")
    return 0


def _cmd_render(args) -> int:
    gens = GeneratorSet.load(args.input)
    if gens.dim == 2:
        obj = diskpoly.boundary_structure(gens)
        svgfig.render_svg(obj, generators=gens, projection=args.projection,
                          path=args.out)
    else:
        svgfig.render_svg(gens, projection=args.projection, path=args.out)
    print(f"wrote {args.out}")
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "metrics": _cmd_metrics,
    "verify": _cmd_verify,
    "replay-proof": _cmd_replay,
    "schramm": _cmd_schramm,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.tol is not None:
            set_geo_tol(args.tol)
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError, DegeneracyError,
            proofreplay.VerificationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
