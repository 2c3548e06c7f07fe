"""Command-line front end.

Angles are accepted in degrees on the command line and converted to
radians once, at this boundary. Output files are written to a
temporary name and atomically renamed, so a failed run never leaves a
truncated artifact behind. Worker count influences wall time only;
output files are byte-identical at any setting, so the resolved
parallelism is echoed on stdout rather than recorded in the files.

Each command imports the layers it runs when it starts, so that no run
compiles and imports modules it never calls.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

from ._version import __version__
from .experiment import (
    MODES,
    ConfigurationError,
    GeneratedTrials,
    InvariantError,
    TrialDatabase,
    check_seed,
    generate_database,
    parse_distribution,
    select_settings,
    write_database,
)
from .geometry import UnitVector, direction_at_angle
from .parallel import resolve_workers
from .rng import DOMAIN_SETTINGS, DOMAIN_SEARCH, root_stream


def _config_from_args(args, default_out: str):
    """Check the common flags that argparse leaves unchecked and resolve them on ``args``,
    which it returns: ``seed``, ``workers``, ``out`` and ``distribution``, the spec that
    ``--dist`` names. argparse's ``choices`` check ``--mode``, ``--format`` and ``--policy``.
    """
    args.seed = check_seed(args.seed, "--seed")
    if args.n < 1:
        raise ConfigurationError(f"--n must be >= 1, got {args.n}")
    args.distribution = parse_distribution(args.dist)
    try:
        args.workers = resolve_workers(args.workers)
    except ValueError as exc:
        raise ConfigurationError(f"--workers: {exc}") from exc
    args.out = args.out or default_out
    return args


def _parse_direction(text: str, flag: str) -> UnitVector:
    """A setting given either as degrees in the x-z plane or as 'x,y,z'."""
    try:
        if "," in text:
            x, y, z = (float(p) for p in text.split(","))
            return UnitVector.normalize(x, y, z)
        return direction_at_angle(math.radians(float(text)))
    except ValueError as exc:
        raise ConfigurationError(f"{flag}: bad direction {text!r}: {exc}") from exc


def _atomic_write(path: str, write):
    """Return ``write(handle)`` of a temp file beside ``path``, renamed into place after it,
    with the mode ``open`` gives a new file: 0o666 less the umask, not mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)  # the only way to read it: set it and put it back
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(prefix=".bellsim-tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            os.chmod(tmp, 0o666 & ~umask)
            result = write(handle)
        os.replace(tmp, path)
        return result
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _dump_json(doc: dict) -> str:
    import json

    return json.dumps(doc, indent=2) + "\n"


def _write_json(path: str, doc: dict) -> None:
    text = _dump_json(doc)
    _atomic_write(path, lambda handle: handle.write(text))


# ---------------------------------------------------------------------------
# commands


def cmd_gen_db(args) -> int:
    _config_from_args(args, default_out="db.txt")
    # rows are generated and formatted one block at a time, in this process
    trials = GeneratedTrials(args.seed, args.distribution, args.n)
    spliced = _atomic_write(args.out, lambda handle: write_database(trials, handle))
    print(
        f"gen-db: wrote {args.out} (n={args.n}, seed={args.seed}, "
        f"dist={args.distribution.tag()}, workers={args.workers})"
    )
    print(f"gen-db: {spliced} of {args.n} rows outside the row kernel's domain", file=sys.stderr)
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
    from .correlation import curve_summary, sweep_correlation, write_curve_csv

    _config_from_args(args, default_out="sweep.csv")
    grid = _sweep_grid(args)
    plane = None
    if args.plane:
        try:
            p1, p2 = args.plane.split(";")
        except ValueError as exc:
            raise ConfigurationError(f"--plane: expected 'x,y,z;x,y,z', got {args.plane!r}") from exc
        plane = (_parse_direction(p1, "--plane"), _parse_direction(p2, "--plane"))

    trials = GeneratedTrials(args.seed, args.distribution, args.n)
    curve = sweep_correlation(trials, grid, plane=plane, workers=args.workers)

    provenance = (
        f"bellsim v{__version__} command=sweep seed={args.seed} n={args.n} "
        f"dist={args.distribution.tag()} "
        f"grid_deg={args.theta_start}:{args.theta_stop}:{args.steps}"
    )
    if args.format == "csv":
        _atomic_write(
            args.out, lambda handle: write_curve_csv(curve, handle, provenance=provenance)
        )
    else:
        _write_json(args.out, curve_summary(curve, args.seed, args.distribution.tag()))

    dev_linear, dev_singlet = curve.max_deviations()
    print(
        f"sweep: wrote {args.out} ({len(curve.points)} points, n={args.n}, "
        f"seed={args.seed}, workers={args.workers})"
    )
    print(
        f"sweep: max |E_hat - E_linear| = {dev_linear:.6f}; "
        f"max |E_hat - E_singlet| = {dev_singlet:.6f}"
    )
    return 0


def _quad_from_args(args, trials: GeneratedTrials | TrialDatabase):
    from .chsh import SettingQuad

    flags = {"--a1": args.a1, "--a2": args.a2, "--b1": args.b1, "--b2": args.b2}
    if args.policy == "fixed":
        missing = [name for name, v in flags.items() if v is None]
        if missing:
            raise ConfigurationError(f"policy=fixed requires {' '.join(missing)}")
        return SettingQuad(*(_parse_direction(v, name) for name, v in flags.items()))
    if any(v is not None for v in flags.values()):
        raise ConfigurationError(f"policy={args.policy} does not take explicit --a1/--a2/--b1/--b2")
    stream = root_stream(args.seed, DOMAIN_SETTINGS)
    a1, b1 = select_settings(args.policy, trials, stream)
    a2, b2 = select_settings(args.policy, trials, stream)
    return SettingQuad(a1=a1, a2=a2, b1=b1, b2=b2)


def cmd_chsh(args) -> int:
    from .chsh import chsh_statistic, result_summary

    _config_from_args(args, default_out="chsh.json")
    trials = GeneratedTrials(args.seed, args.distribution, args.n)
    quad = _quad_from_args(args, trials)
    # one pass over generated rows (three more sets in fresh mode); no database is held whole
    stream = root_stream(args.seed, DOMAIN_SEARCH) if args.mode == "fresh" else None
    result = chsh_statistic(trials, quad, args.mode, stream, workers=args.workers)

    doc = result_summary(result, quad, seed=args.seed, distribution_tag=args.distribution.tag())
    _write_json(args.out, doc)
    print(f"chsh: S = {result.statistic:.10g} (mode={args.mode}, n={args.n}); wrote {args.out}")
    if args.mode == "reuse":
        print(
            f"chsh: per-trial terms in {{-2,+2}}: OK "
            f"(min={result.per_trial_min}, max={result.per_trial_max})"
        )
    else:
        print(f"chsh: combined SE = {result.combined_se:.6f}")
    return 0


def cmd_search(args) -> int:
    from .chsh import result_summary, search_max_chsh

    _config_from_args(args, default_out="search.json")
    if args.budget < 1:
        raise ConfigurationError(f"--budget must be >= 1, got {args.budget}")

    # generated in this process: at the sizes a search evaluates, forking costs more than it saves
    db = generate_database(args.seed, args.distribution, args.n)
    stream = root_stream(args.seed, DOMAIN_SEARCH)

    def pruned(candidates: int, unread: int, full: int, rows: int) -> None:
        print(
            f"search: {unread} of {candidates} random and refinement candidates dropped before "
            f"reading a row, {full} tallied in full, {rows} of {candidates * args.n} rows read "
            f"({rows / max(1, candidates * args.n):.2%})",
            file=sys.stderr,
        )

    # a reuse search checks its best quad before returning it, so the bound
    # below is printed only for a quad that passed
    best, quad = search_max_chsh(
        db, args.mode, args.budget, stream, workers=args.workers, report=pruned
    )
    doc = result_summary(
        best, quad, seed=args.seed, distribution_tag=args.distribution.tag(), budget=args.budget
    )
    _write_json(args.out, doc)

    print(
        f"search: wrote {args.out} (budget={args.budget}, mode={args.mode}, workers={args.workers})"
    )
    if args.mode == "reuse":
        print(f"bound respected: S_max = {best.statistic:.10g} ≤ 2")
    else:
        print(f"search: S_max = {best.statistic:.10g} (fresh mode, n={args.n})")
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
    from .chsh import enumerate_deterministic_strategies

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
        sub.add_argument("--mode", choices=MODES, default="reuse")
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
    except MemoryError as exc:
        # too large for this machine; a partly written artifact was removed on the way out
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
