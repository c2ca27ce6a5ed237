"""Command-line interface: single runs, table reproductions and the speed oracle."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .model import ModelParams, ShootingError, hyperbolic_front_speed_shooting
from .scenarios import (
    ConfigError,
    Scenario,
    parse_config_text,
    run_order_comparison,
    run_random_study,
    run_riemann_decay,
    run_speed_table,
)
from .timestepping import BlowUpError, SolveError

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperac",
        description=(
            "Finite-volume kinetic schemes for the bistable reaction-diffusion "
            "equation with relaxation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single scenario from a config file")
    p_run.add_argument("config", help="path to a 'key = value' config file")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
    p_run.add_argument("--seed", type=int, help="override init.seed")
    p_run.add_argument("--out-dir", help="override output.dir")

    p_speed = sub.add_parser("speed-table", help="relative speed errors over (dt, dx)")
    p_speed.add_argument("--out-dir", default="speed_table_out")

    p_order = sub.add_parser("order-table", help="final speeds at fixed resolution")
    p_order.add_argument("--order", type=int, choices=(1, 2), required=True)
    p_order.add_argument("--out-dir", default="order_table_out")

    p_decay = sub.add_parser("riemann-decay", help="decay toward the stationary front")
    p_decay.add_argument("--tau", type=float, default=4.0)
    p_decay.add_argument("--out-dir", default="riemann_decay_out")

    p_random = sub.add_parser("random-study", help="front formation from random data")
    p_random.add_argument("--variant", choices=("decay", "overlapping"), default="decay")
    p_random.add_argument("--seed", type=int, default=1)
    p_random.add_argument("--alpha", type=float, default=0.6)
    p_random.add_argument("--out-dir", default="random_study_out")

    p_shoot = sub.add_parser("shoot", help="reference front speed by shooting")
    p_shoot.add_argument("--tau", type=float, required=True)
    p_shoot.add_argument("--alpha", type=float, required=True)
    p_shoot.add_argument("--mu", type=float, default=1.0)
    p_shoot.add_argument("--kappa", type=float, default=1.0)
    p_shoot.add_argument("--tol", type=float, default=1e-6)
    p_shoot.add_argument(
        "--decreasing",
        action="store_true",
        help="report the decreasing-front speed instead of the increasing one",
    )
    return parser


def _scenario_from_args(args) -> Scenario:
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values = parse_config_text(path.read_text(encoding="utf-8"))
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        values[key.strip()] = value.strip()
    if args.seed is not None:
        values["init.seed"] = str(args.seed)
    if args.out_dir is not None:
        values["output.dir"] = args.out_dir
    return Scenario.from_dict(values)


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching the config-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.command == "run":
            scenario = _scenario_from_args(args)
            result = scenario.execute()
            final_t = result.diagnostics.times[-1]
            print(f"run finished at t={final_t:g}; "
                  f"final average speed {result.diagnostics.speeds[-1]:.6g}")
            if scenario.output_dir is not None:
                print(f"wrote CSV output to {scenario.output_dir}")
        elif args.command == "speed-table":
            rows = run_speed_table(out_dir=args.out_dir)
            for row in rows:
                print(
                    f"case {row['case']} dt={row['dt']:g} dx={row['dx']:g}: "
                    f"speed {row['speed']:.4f} rel_error {row['rel_error']:.4f}"
                )
            print(f"wrote CSV output to {args.out_dir}")
        elif args.command == "order-table":
            rows = run_order_comparison(args.order, out_dir=args.out_dir)
            for row in rows:
                print(
                    f"order {row['order']} tau={row['tau']:g} alpha={row['alpha']:g}: "
                    f"speed {row['speed']:.4f} rel_error {row['rel_error']:.4f}"
                )
            print(f"wrote CSV output to {args.out_dir}")
        elif args.command == "riemann-decay":
            out = run_riemann_decay(tau=args.tau, out_dir=args.out_dir)
            final = out["hyperbolic"].diagnostics
            print(f"final L2 distance {final.l2[-1]:.6g}, "
                  f"final max-norm distance {final.linf[-1]:.6g}")
            print(f"wrote CSV output to {args.out_dir}")
        elif args.command == "random-study":
            entries = run_random_study(
                variant=args.variant, seed=args.seed, alpha=args.alpha,
                out_dir=args.out_dir,
            )
            for entry in entries:
                print(
                    f"tau={entry['tau']:g}: alpha-crossings {entry['sign_changes']}, "
                    f"crossing at {entry['crossing']}"
                )
            print(f"wrote CSV output to {args.out_dir}")
        elif args.command == "shoot":
            params = ModelParams(
                tau=args.tau, mu=args.mu, kappa=args.kappa, alpha=args.alpha
            )
            speed = hyperbolic_front_speed_shooting(
                params, tol=args.tol, increasing=not args.decreasing
            )
            print(f"{speed:.6f}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (BlowUpError, SolveError, ShootingError) as err:
        print(f"run failed: {err}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return EXIT_OK


def main() -> None:
    sys.exit(cli_main())
