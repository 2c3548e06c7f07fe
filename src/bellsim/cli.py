"""Command-line front end.

Angles are accepted in degrees on the command line and converted to
radians once, at this boundary. Output files are written to a
temporary name and atomically renamed, so a failed run never leaves a
truncated artifact behind. Worker count influences wall time only;
output files are byte-identical at any setting, so the resolved
parallelism is echoed on stdout rather than recorded in the files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

from ._version import __version__
from .chsh import (
    SettingQuad,
    chsh_statistic,
    enumerate_deterministic_strategies,
    result_summary,
    search_max_chsh,
)
from .correlation import curve_summary, sweep_correlation, write_curve_csv
from .experiment import (
    ConfigurationError,
    DistributionSpec,
    GeneratedTrials,
    InvariantError,
    TrialDatabase,
    UniformSphere,
    check_seed,
    generate_database,
    parse_distribution,
    select_settings,
    write_database,
)
from .geometry import UnitVector, direction_at_angle
from .parallel import resolve_workers
from .rng import DOMAIN_SETTINGS, DOMAIN_SEARCH, root_stream


@dataclass
class RunConfig:
    """Validated knobs shared by the computing commands."""

    seed: int = 0
    n: int = 10**6
    distribution: DistributionSpec = field(default_factory=UniformSphere)
    mode: str = "reuse"
    policy: str = "fixed"
    workers: int = 1
    out: str = ""
    format: str = "csv"


def _config_from_args(args, default_out: str, formats: tuple[str, ...]) -> RunConfig:
    seed = check_seed(args.seed, "--seed")
    if args.n < 1:
        raise ConfigurationError(f"--n must be >= 1, got {args.n}")
    distribution = parse_distribution(args.dist)
    mode = getattr(args, "mode", "reuse")
    if mode not in ("reuse", "fresh"):
        raise ConfigurationError(f"--mode must be 'reuse' or 'fresh', got {mode!r}")
    policy = getattr(args, "policy", "fixed")
    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        raise ConfigurationError(f"--workers: {exc}") from exc
    fmt = getattr(args, "format", formats[0])
    if fmt not in formats:
        raise ConfigurationError(f"--format must be one of {formats}, got {fmt!r}")
    return RunConfig(
        seed=seed,
        n=args.n,
        distribution=distribution,
        mode=mode,
        policy=policy,
        workers=workers,
        out=args.out if args.out else default_out,
        format=fmt,
    )


def _parse_direction(text: str, flag: str) -> UnitVector:
    """A setting given either as degrees in the x-z plane or as 'x,y,z'."""
    try:
        if "," in text:
            x, y, z = (float(p) for p in text.split(","))
            return UnitVector.normalize(x, y, z)
        return direction_at_angle(math.radians(float(text)))
    except ValueError as exc:
        raise ConfigurationError(f"{flag}: bad direction {text!r}: {exc}") from exc


def _atomic_write(path: str, write) -> None:
    """Call ``write(handle)`` on a temp file beside ``path``, then rename it into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".bellsim-tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _write_json(path: str, doc: dict) -> None:
    text = _dump_json(doc)
    _atomic_write(path, lambda handle: handle.write(text))


# ---------------------------------------------------------------------------
# commands


def cmd_gen_db(args) -> int:
    cfg = _config_from_args(args, default_out="db.txt", formats=("text",))
    # rows are generated and formatted one block at a time, in this process
    trials = GeneratedTrials(cfg.seed, cfg.distribution, cfg.n)
    _atomic_write(cfg.out, lambda handle: write_database(trials, handle))
    print(
        f"gen-db: wrote {cfg.out} (n={cfg.n}, seed={cfg.seed}, "
        f"dist={cfg.distribution.tag()}, workers={cfg.workers})"
    )
    return 0


def _sweep_grid(args) -> list[float]:
    if args.steps < 1:
        raise ConfigurationError(f"--steps must be >= 1, got {args.steps}")
    if not 0.0 <= args.theta_start <= 180.0 or not 0.0 <= args.theta_stop <= 180.0:
        raise ConfigurationError("--theta-start/--theta-stop must lie in [0, 180] degrees")
    if args.steps == 1:
        degs = [args.theta_start]
    else:
        if args.theta_stop <= args.theta_start:
            raise ConfigurationError("--theta-stop must exceed --theta-start when --steps > 1")
        span = args.theta_stop - args.theta_start
        degs = [args.theta_start + span * i / (args.steps - 1) for i in range(args.steps)]
    return [math.radians(d) for d in degs]


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args, default_out="sweep.csv", formats=("csv", "json"))
    grid = _sweep_grid(args)
    plane = None
    if args.plane:
        try:
            p1, p2 = args.plane.split(";")
            e1 = _parse_direction(p1, "--plane")
            e2 = _parse_direction(p2, "--plane")
        except ValueError as exc:
            raise ConfigurationError(f"--plane: expected 'x,y,z;x,y,z', got {args.plane!r}") from exc
        plane = (e1, e2)

    trials = GeneratedTrials(cfg.seed, cfg.distribution, cfg.n)
    curve = sweep_correlation(trials, grid, plane=plane, workers=cfg.workers)

    provenance = (
        f"bellsim v{__version__} command=sweep seed={cfg.seed} n={cfg.n} "
        f"dist={cfg.distribution.tag()} "
        f"grid_deg={args.theta_start}:{args.theta_stop}:{args.steps}"
    )
    if cfg.format == "csv":
        _atomic_write(
            cfg.out, lambda handle: write_curve_csv(curve, handle, provenance=provenance)
        )
    else:
        _write_json(cfg.out, curve_summary(curve, cfg.seed, cfg.distribution.tag()))

    dev_linear, dev_singlet = curve.max_deviations()
    print(
        f"sweep: wrote {cfg.out} ({len(curve.points)} points, n={cfg.n}, "
        f"seed={cfg.seed}, workers={cfg.workers})"
    )
    print(
        f"sweep: max |E_hat - E_linear| = {dev_linear:.6f}; "
        f"max |E_hat - E_singlet| = {dev_singlet:.6f}"
    )
    return 0


def _quad_from_args(args, cfg: RunConfig, trials: GeneratedTrials | TrialDatabase) -> SettingQuad:
    flags = (args.a1, args.a2, args.b1, args.b2)
    if cfg.policy == "fixed":
        missing = [name for name, v in zip(("--a1", "--a2", "--b1", "--b2"), flags) if v is None]
        if missing:
            raise ConfigurationError(f"policy=fixed requires {' '.join(missing)}")
        return SettingQuad(
            a1=_parse_direction(args.a1, "--a1"),
            a2=_parse_direction(args.a2, "--a2"),
            b1=_parse_direction(args.b1, "--b1"),
            b2=_parse_direction(args.b2, "--b2"),
        )
    if any(v is not None for v in flags):
        raise ConfigurationError(f"policy={cfg.policy} does not take explicit --a1/--a2/--b1/--b2")
    stream = root_stream(cfg.seed, DOMAIN_SETTINGS)
    a1, b1 = select_settings(cfg.policy, trials, stream)
    a2, b2 = select_settings(cfg.policy, trials, stream)
    return SettingQuad(a1=a1, a2=a2, b1=b1, b2=b2)


def cmd_chsh(args) -> int:
    cfg = _config_from_args(args, default_out="chsh.json", formats=("json",))
    if cfg.policy not in ("fixed", "from-database", "uniform"):
        raise ConfigurationError(f"--policy must be fixed|from-database|uniform, got {cfg.policy!r}")

    trials = GeneratedTrials(cfg.seed, cfg.distribution, cfg.n)
    quad = _quad_from_args(args, cfg, trials)
    # one pass over generated rows (three more sets in fresh mode); no database is held whole
    stream = root_stream(cfg.seed, DOMAIN_SEARCH) if cfg.mode == "fresh" else None
    result = chsh_statistic(trials, quad, cfg.mode, stream, workers=cfg.workers)

    doc = result_summary(result, quad, seed=cfg.seed, distribution_tag=cfg.distribution.tag())
    _write_json(cfg.out, doc)
    print(f"chsh: S = {result.statistic:.10g} (mode={cfg.mode}, n={cfg.n}); wrote {cfg.out}")
    if cfg.mode == "reuse":
        print(
            f"chsh: per-trial terms in {{-2,+2}}: OK "
            f"(min={result.per_trial_min}, max={result.per_trial_max})"
        )
    else:
        print(f"chsh: combined SE = {result.combined_se:.6f}")
    return 0


def cmd_search(args) -> int:
    cfg = _config_from_args(args, default_out="search.json", formats=("json",))
    if args.budget < 1:
        raise ConfigurationError(f"--budget must be >= 1, got {args.budget}")

    # generated in this process: at the sizes a search evaluates, a pool costs more than it saves
    db = generate_database(cfg.seed, cfg.distribution, cfg.n)
    stream = root_stream(cfg.seed, DOMAIN_SEARCH)
    # a reuse search checks its best quad before returning it, so the bound
    # below is printed only for a quad that passed
    best, quad = search_max_chsh(db, cfg.mode, args.budget, stream, workers=cfg.workers)
    doc = result_summary(
        best, quad, seed=cfg.seed, distribution_tag=cfg.distribution.tag(), budget=args.budget
    )
    _write_json(cfg.out, doc)

    print(f"search: wrote {cfg.out} (budget={args.budget}, mode={cfg.mode}, workers={cfg.workers})")
    if cfg.mode == "reuse":
        print(f"bound respected: S_max = {best.statistic:.10g} ≤ 2")
    else:
        print(f"search: S_max = {best.statistic:.10g} (fresh mode, n={cfg.n})")
        excess = doc["excess_over_2"]
        if excess > 0.0:
            bound = doc["excess_hoeffding_bound"]
            print(
                f"search: excess over 2 is {excess:.6f}; "
                f"Hoeffding bound for a fluctuation this large: {bound:.3e}"
            )
            # the figure above is for one fixed quad; the search kept the best of
            # budget of them, so the union bound multiplies it by the budget
            print(
                f"search: over all {args.budget} candidates (union bound): "
                f"{min(1.0, args.budget * bound):.3e}",
                file=sys.stderr,
            )
    return 0


def cmd_enumerate(args) -> int:
    enum = enumerate_deterministic_strategies()
    print(" x1  x2  y1  y2  term")
    for x1, x2, y1, y2, term in enum.table:
        print(f"{x1:+3d} {x2:+3d} {y1:+3d} {y2:+3d} {term:+5d}")
    print(f"max={enum.max:+d} min={enum.min:+d}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, *, mode=False, fmt=None) -> None:
    sub.add_argument("--seed", type=int, default=0, help="64-bit unsigned seed (default 0)")
    sub.add_argument("--n", type=int, default=10**6, help="trial count (default 1000000)")
    sub.add_argument(
        "--dist",
        default="uniform-sphere",
        help="spin distribution: uniform-sphere | fixed-axis(x,y,z) | "
        "cap(x,y,z,half_angle_rad) | mixture(w:spec;...)",
    )
    sub.add_argument("--workers", default="1", help="worker processes, a count or 'auto'")
    sub.add_argument("--out", default=None, help="output file path")
    if mode:
        sub.add_argument("--mode", choices=("reuse", "fresh"), default="reuse")
    if fmt:
        sub.add_argument("--format", choices=fmt, default=fmt[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Monte Carlo toolkit for the classical signed spin-pair experiment",
    )
    parser.add_argument("--version", action="version", version=f"bellsim {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen-db", help="generate and write a trial database")
    _add_common(gen)
    gen.set_defaults(func=cmd_gen_db)

    sweep = commands.add_parser("sweep", help="sweep E(theta) against both reference curves")
    _add_common(sweep, fmt=("csv", "json"))
    sweep.add_argument("--theta-start", type=float, default=0.0, help="grid start, degrees")
    sweep.add_argument("--theta-stop", type=float, default=180.0, help="grid stop, degrees")
    sweep.add_argument("--steps", type=int, default=181, help="number of grid points")
    sweep.add_argument(
        "--plane", default=None, help="explicit sweep plane 'x,y,z;x,y,z' (orthonormal pair)"
    )
    sweep.set_defaults(func=cmd_sweep)

    chsh = commands.add_parser("chsh", help="evaluate the CHSH statistic for a setting quad")
    _add_common(chsh, mode=True, fmt=("json",))
    chsh.add_argument("--policy", choices=("fixed", "from-database", "uniform"), default="fixed")
    for flag in ("--a1", "--a2", "--b1", "--b2"):
        chsh.add_argument(flag, default=None, help=f"{flag[2:]} setting: degrees or 'x,y,z'")
    chsh.set_defaults(func=cmd_chsh)

    search = commands.add_parser("search", help="search settings for the maximal statistic")
    _add_common(search, mode=True, fmt=("json",))
    search.add_argument("--budget", type=int, default=1000, help="candidate quads to evaluate")
    search.set_defaults(func=cmd_search)

    enum = commands.add_parser("enumerate", help="exhaust the 16 deterministic strategies")
    enum.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        # a checked theorem failed, so the program has a defect; every command
        # checks before it writes, so no artifact exists
        print(f"defect: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
