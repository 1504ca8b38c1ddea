"""The ``p4bid policy`` verbs: check, explain.

* ``p4bid policy check`` — generate the deterministic scenario universe
  and traffic stream, replay it through a :class:`PolicyEngine`, and
  print (or emit as JSON) the decision summary with checks/sec and
  p50/p95/p99 latency — optionally the full decision log, which is
  byte-identical across hash seeds and machines.
* ``p4bid policy explain`` — decide one request of the stream and, when
  denied, print the shortest policy-violation chains (request →
  derivation lineage → the consent bound it breaks).

Exit status follows the checker's conventions: 0 ok, 1 the verb's
verdict is negative (explained request denied with ``--deny-exit``),
2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.lattice.policy import PolicyLattice
from repro.lattice.registry import available_lattices, get_lattice
from repro.policy.engine import PolicyEngine
from repro.policy.model import PolicyError
from repro.policy.stream import replay
from repro.synth.policy_traffic import policy_traffic, scenario_universe


def build_policy_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p4bid policy",
        description=(
            "Data-governance compliance over policy lattices: decide "
            "purpose/consent/retention requests at traffic rate."
        ),
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--lattice",
            default="policy-mini",
            help=(
                "policy lattice to decide against (policy-mini, or "
                "policy-P-R-T for P purposes / R recipients / T retention "
                f"classes; registered: {', '.join(available_lattices())})"
            ),
        )
        sub.add_argument(
            "--subjects", type=int, default=24, metavar="N",
            help="data subjects in the scenario universe (default 24)",
        )
        sub.add_argument(
            "--datasets", type=int, default=12, metavar="N",
            help="datasets (raw + derived lineage) in the universe (default 12)",
        )
        sub.add_argument(
            "--events", type=int, default=1000, metavar="N",
            help="traffic events to generate (default 1000)",
        )
        sub.add_argument(
            "--revoke-every", type=int, default=200, metavar="N",
            help="inject a consent revocation every N events (0: never)",
        )
        sub.add_argument(
            "--seed", type=int, default=0,
            help="scenario seed; same seed, same universe and stream",
        )
        sub.add_argument(
            "--json", action="store_true", help="emit JSON instead of text"
        )

    check = verbs.add_parser(
        "check", help="replay the scenario stream and report the decisions"
    )
    common(check)
    check.add_argument(
        "--rate", type=float, metavar="R",
        help="pace the replay at R events/sec (default: full speed)",
    )
    check.add_argument(
        "--log", action="store_true",
        help="also print the per-decision log (deterministic, diffable)",
    )

    explain = verbs.add_parser(
        "explain", help="explain one request of the stream (witness chains)"
    )
    common(explain)
    explain.add_argument(
        "--request", type=int, required=True, metavar="UID",
        help="uid of the stream event to explain (see `policy check --log`)",
    )
    explain.add_argument(
        "--deny-exit", action="store_true",
        help="exit 1 when the explained request is denied",
    )
    return parser


def _build_scenario(args: argparse.Namespace):
    lattice = get_lattice(args.lattice)
    if not isinstance(lattice, PolicyLattice):
        raise PolicyError(
            f"lattice {args.lattice!r} is not a policy lattice; use "
            f"policy-mini or policy-P-R-T"
        )
    universe = scenario_universe(
        lattice, subjects=args.subjects, datasets=args.datasets, seed=args.seed
    )
    events = policy_traffic(
        universe,
        events=args.events,
        revoke_every=args.revoke_every,
        seed=args.seed,
    )
    return universe, events


def _check(args: argparse.Namespace) -> int:
    universe, events = _build_scenario(args)
    engine = PolicyEngine(universe)
    report = replay(engine, events, rate=args.rate)
    if args.json:
        payload = report.as_dict()
        if args.log:
            payload["log"] = report.decision_log()
        print(json.dumps(payload, indent=2))
    else:
        print(report.describe())
        if args.log:
            print("\n".join(report.decision_log()))
    return 0


def _explain(args: argparse.Namespace) -> int:
    universe, events = _build_scenario(args)
    engine = PolicyEngine(universe)
    target = None
    # Replay the stream up to the target uid so mid-stream revocations are
    # in effect, exactly as they were when the stream decided it.
    for event in events:
        if event.uid == args.request:
            target = event
            break
        if event.regrant is not None:
            engine.set_grant(*event.regrant)
    if target is None or target.request is None:
        print(
            f"p4bid policy: event {args.request} is not a request of this "
            f"stream (seed {args.seed}, {args.events} events)",
            file=sys.stderr,
        )
        return 2
    explanation = engine.explain(target.request)
    if args.json:
        lattice = universe.lattice
        print(
            json.dumps(
                {
                    "decision": explanation.decision.as_dict(engine),
                    "violated_subjects": list(explanation.violated_subjects),
                    "witnesses": [
                        witness.describe(lattice).splitlines()
                        for witness in explanation.witnesses
                    ],
                },
                indent=2,
            )
        )
    else:
        print(explanation.describe(engine))
    if args.deny_exit and not explanation.decision.permit:
        return 1
    return 0


def policy_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``p4bid policy``."""
    parser = build_policy_arg_parser()
    args = parser.parse_args(argv)
    if args.subjects < 1 or args.datasets < 1 or args.events < 1:
        parser.error("--subjects, --datasets and --events must be at least 1")
    if args.revoke_every < 0:
        parser.error("--revoke-every must be non-negative")
    if getattr(args, "rate", None) is not None and not args.rate > 0:
        parser.error("--rate must be positive")
    try:
        if args.verb == "check":
            return _check(args)
        return _explain(args)
    except PolicyError as exc:
        print(f"p4bid policy: {exc}", file=sys.stderr)
        return 2
