"""Command-line interface.

Exit codes: 0 all checks passed, 1 a check failed or the report holds a
number strict JSON cannot state (NaN, an infinity; then nothing is
written), 2 configuration or validation error (the diagnostic names the
offending field), an --out path that cannot be written included (field
``out``).  A flag or config field the command does not read
(``harness.CHECKS``) is a configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, InconclusiveError, ValidationError
from .families import LEMMA_FAMILIES, LINEAR_FAMILIES
from .harness import (CHECKS, DEFAULT_SEED, IDENTITY_TOL, SUITE_READS, RunConfig, isotropic_point, load_config,
                      run, run_suite)
from .matrices import FAMILIES, FAMILY_BY_ALIAS, NONCOMPACT_FAMILIES


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its entries")
    sub.add_argument("--samples", type=int, help="sample count (default 100)")
    sub.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED})")
    sub.add_argument("--radius", type=float, help="coefficient radius in (0, 1] (default 0.5)")
    sub.add_argument("--tol", type=float, help="pass tolerance (default 1e-8)")
    sub.add_argument("--floor", type=float, help="quotient domain floor (default 1e-3)")
    sub.add_argument("--out", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgh",
        description="Seeded numerical verification of eigenfamily and harmonic-morphism identities on classical matrix Lie groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("verify-identities", help="generator summation identities")
    s.add_argument("--n", type=int, help="matrix size (default 5)")
    _add_common(s)

    s = sub.add_parser("verify-lemma", help="coordinate-function tau/kappa relations")
    s.add_argument("--group", choices=[FAMILIES[f].alias for f in LEMMA_FAMILIES])
    s.add_argument("--n", type=int)
    _add_common(s)

    s = sub.add_parser("verify-family", help="eigenfamily equations")
    s.add_argument("--group", choices=[FAMILIES[f].alias for f in LINEAR_FAMILIES])
    s.add_argument("--n", type=int)
    s.add_argument(
        "--special",
        action="store_true",
        help="SO only: isotropic-point family instead of the isotropic-subspace one",
    )
    _add_common(s)

    s = sub.add_parser("verify-morphism", help="harmonicity and conformality of P/Q")
    _add_common(s)

    s = sub.add_parser("verify-duality", help="dual eigenfamily with negated constants")
    s.add_argument("--pair", choices=[FAMILIES[f].alias for f in NONCOMPACT_FAMILIES])
    s.add_argument("--n", type=int)
    s.add_argument("--p", type=int)
    s.add_argument("--q", type=int)
    _add_common(s)

    s = sub.add_parser("suite", help="run the full verification matrix")
    _add_common(s)
    return parser


def _config_from_args(args) -> RunConfig:
    """The config file overridden by the flags.

    A field the command does not read, set by a flag or by the config file
    (whatever its value), is an error; so is a flag that refines --group or
    --pair given without it, and a verify-identities tol so set above
    IDENTITY_TOL.
    """
    command = args.command
    cfg, in_file = load_config(args.config) if args.config else (RunConfig(), ())
    flagged = [key for key in ("samples", "seed", "radius", "tol", "floor")
               if getattr(args, key) is not None]
    for key in flagged:
        setattr(cfg, key, getattr(args, key))
    refining = {key: getattr(args, key, None) for key in ("n", "p", "q", "special")}
    refining = {key: val for key, val in refining.items() if val is not None and val is not False}
    if command == "verify-identities" and "n" in refining:
        cfg.n = refining.pop("n")
        flagged.append("n")
    if command == "verify-lemma" and args.group:
        cfg.group = {"family": args.group, "n": refining.pop("n", (cfg.group or {}).get("n"))}
    if command == "verify-family" and args.group:
        n = refining.pop("n", None)
        spec: dict = {"group": {"family": args.group, "n": n}}
        if args.group == "so" and refining.pop("special", False):
            spec["p"] = isotropic_point(n or 2)
        elif args.group == "so":
            spec["V"] = "standard"
        cfg.family = spec
    if command == "verify-duality" and args.pair:
        pair: dict = {"family": args.pair}
        for key in ("p", "q") if FAMILIES[FAMILY_BY_ALIAS[args.pair]].pq else ("n",):
            pair[key] = refining.pop(key, None)
        cfg.pair = pair
    for key in refining:
        raise ConfigError(
            f"lgh {command} does not read --{key} here: it only refines --group or --pair",
            field=key,
        )
    reads = SUITE_READS if command == "suite" else CHECKS[command].reads
    given = [key for key in vars(cfg) if key in flagged or key in in_file]
    for key in given:
        if key not in reads:
            raise ConfigError(f"lgh {command} reads only {', '.join(reads)}, not {key}", field=key)
    cfg.validate()
    if command == "verify-identities" and "tol" in given and cfg.tol > IDENTITY_TOL:
        raise ConfigError(f"lgh verify-identities takes a tol of at most {IDENTITY_TOL:g}", field="tol")
    return cfg


def _emit(document: dict, out: str | None) -> bool:
    """Write the document as strict JSON to ``out`` or stdout; write nothing
    and return False if it holds NaN or an infinity."""
    try:
        text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        print(f"error: the report is not strict JSON: {exc}", file=sys.stderr)
        return False
    if not out:
        print(text)
        return True
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write the report to {out}: {exc.strerror}", field="out") from exc
    return True


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "suite":
            document = run_suite(seed=cfg.seed, tol=cfg.tol)
        else:
            document = run(args.command, cfg).to_dict()
        return 0 if _emit(document, args.out) and document["passed"] else 1
    except ConfigError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        print(f"config error{field}: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, InconclusiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
