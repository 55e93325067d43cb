"""Command-line interface: argument parsing and output.

Subcommands: gen, solve, chi, play, boxgame, goodset, telemetry, accept.
The library does the work; seeded matches come from ``gamelab.match``.
The environment variable GAMELAB_SEED, when set, overrides the ``--seed``
of ``gamelab play``.  Exit status is 0 iff every check the invocation
actually executed passed (informational commands always exit 0); a search
that runs past its ``--budget`` exits 1 with the node count on stderr; bad
input is reported as one ``error:`` line with exit status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from ._util import BudgetExceeded, StrategyError, check_budget
from .boxgame import box_threshold, bob_wins, is_near_uniform, solve_boxgame
from .engine import MODIFIED, STRICT, VARIANTS, GameConfig, MoveLog
from .exact import game_chromatic_index, solve
from .goodset import condition_values, find_good_set, harmonic_condition
from .graph import generate, write_edge_list
from .maker import MakerConfig
from .match import (
    BREAKER_POLICIES,
    MAKER_POLICIES,
    ExperimentSpec,
    load_graph,
    run_match,
)

# the benchmark (perfbench/harness.py) looks up play_game on gamelab.cli
from .match import play_game  # noqa: F401
from .telemetry import analyze, summary_json, to_csv


def _int(text: str, name: str) -> int:
    """``int(text)``, with an error that names the argument it came from."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name}: {text!r} is not an integer") from None


def master_seed(arg_seed: int) -> int:
    env = os.environ.get("GAMELAB_SEED")
    return _int(env, "GAMELAB_SEED") if env is not None else arg_seed


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_gen(args) -> int:
    g = generate(args.spec)
    _emit(write_edge_list(g), args.out)
    return 0


def cmd_solve(args) -> int:
    g = load_graph(args.graph)
    cfg = GameConfig(args.k, args.b, args.variant)
    res = solve(g, args.k, cfg, budget=args.budget, memoize=not args.no_memo)
    doc = {
        "graph": args.graph,
        "n": g.n,
        "m": g.m,
        "k": args.k,
        "b": args.b,
        "variant": args.variant,
        "winner": res.winner,
        "nodes": res.nodes,
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    return 0


def cmd_chi(args) -> int:
    g = load_graph(args.graph)
    cfg = GameConfig(1, args.b, args.variant)
    res = game_chromatic_index(
        g, args.b, cfg, budget=args.budget, memoize=not args.no_memo
    )
    doc = {
        "graph": args.graph,
        "b": args.b,
        "variant": args.variant,
        "value": res.value,
        "winners": {str(k): w for k, w in sorted(res.winners.items())},
        "partial": res.partial,
        "nodes": res.nodes,
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    return 1 if res.partial else 0


def cmd_play(args) -> int:
    spec = ExperimentSpec(
        graph=args.graph,
        maker=args.maker,
        breaker=args.breaker,
        k=args.k,
        b=args.b,
        variant=args.variant,
        mode=args.mode,
        trials=args.trials,
        seed=master_seed(args.seed),
        lam=args.lam,
        c=args.c,
        logs_dir=args.logs,
    )
    report = run_match(spec)
    _emit(report.to_json(), args.out)
    return 0


def cmd_boxgame(args) -> int:
    sizes = [_int(x, "--sizes") for x in args.sizes.split(",") if x.strip()]
    if not sizes:
        raise ValueError("need at least one box size")
    doc: dict = {
        "sizes": sizes,
        "b": args.b,
        "near_uniform": is_near_uniform(sizes),
        "f_threshold": box_threshold(len(sizes), args.b),
        "bob_wins_criterion": bob_wins(sizes, args.b),
    }
    status = 0
    if args.solve:
        winner = solve_boxgame(sizes, args.b, budget=args.budget)
        doc["minimax_bob_wins"] = winner
        doc["agree"] = winner == doc["bob_wins_criterion"]
        status = 0 if doc["agree"] else 1
    _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    return status


def cmd_goodset(args) -> int:
    if args.b < 1:
        raise ValueError("bias b must be at least 1")
    g = load_graph(args.graph)
    cert = find_good_set(g)
    doc: dict = {
        "graph": args.graph,
        "F": [list(g.edges[e]) for e in cert.edges],
        "indices": list(cert.edges),
        "size": len(cert),
        "pair_distances": [list(t) for t in cert.pair_distances],
    }
    status = 0
    if args.b >= 2:
        lhs, rhs = condition_values(g, cert.edges, args.b)
        satisfied = harmonic_condition(g, cert.edges, args.b)
        doc["condition_lhs"] = str(lhs)
        doc["condition_rhs"] = str(rhs)
        doc["satisfied"] = satisfied
        status = 0 if satisfied else 1
    else:
        doc["condition_lhs"] = doc["condition_rhs"] = doc["satisfied"] = None
    _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    return status


def cmd_telemetry(args) -> int:
    g = load_graph(args.graph)
    log = MoveLog.from_jsonl(Path(args.log).read_text(), g)
    cfg = GameConfig(args.k, args.b, args.variant, args.mode)
    mcfg = MakerConfig(lam=args.lam, c=args.c)
    report = analyze(log, g, cfg, mcfg)
    csv_text = to_csv(report)
    json_text = summary_json(report)
    if args.out_csv:
        Path(args.out_csv).write_text(csv_text)
    if args.out_json:
        Path(args.out_json).write_text(json_text + "\n")
    if not args.out_csv and not args.out_json:
        print(csv_text, end="")
        print(json_text)
    return 0


def cmd_accept(args) -> int:
    from . import acceptance

    only = None
    if args.only:
        only = sorted({_int(x, "--only") for x in args.only.split(",") if x.strip()})
        if not only:
            raise ValueError("need at least one criterion number")
        for n in only:
            if n not in acceptance.CRITERIA:
                raise ValueError(f"unknown criterion {n}")
    results = acceptance.run_criteria(only)
    for res in results:
        print(res.line())
    if args.out:
        doc = [res.as_dict() for res in results]
        Path(args.out).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0 if all(r.status != "FAIL" for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamelab",
        description="Maker-Breaker edge-coloring game experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph(p):
        p.add_argument("--graph", required=True, help="edge-list file or family spec")

    def add_out(p):
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("gen", help="emit a generated graph as an edge list")
    p.add_argument("spec", help="family spec, e.g. cycle:7 or random_regular:64:16:1")
    add_out(p)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("solve", help="exact winner for one palette size")
    add_graph(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--variant", choices=sorted(VARIANTS), default="skip")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--no-memo", action="store_true")
    add_out(p)
    p.set_defaults(fn=cmd_solve, search="solve")

    p = sub.add_parser("chi", help="game chromatic index over the trivial range")
    add_graph(p)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--variant", choices=sorted(VARIANTS), default="skip")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--no-memo", action="store_true")
    add_out(p)
    p.set_defaults(fn=cmd_chi, search="solve")

    p = sub.add_parser("play", help="seeded match between two policies")
    add_graph(p)
    p.add_argument("--maker", choices=MAKER_POLICIES, default="random")
    p.add_argument("--breaker", choices=BREAKER_POLICIES, default="random")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--variant", choices=sorted(VARIANTS), default="skip")
    p.add_argument("--mode", choices=[STRICT, MODIFIED], default=STRICT)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda", dest="lam", default=None, help="maker lambda, e.g. 1/10")
    p.add_argument("--c", default=None, help="maker c, e.g. 1/1000")
    p.add_argument("--logs", default=None, help="directory for per-trial JSON-lines logs")
    add_out(p)
    p.set_defaults(fn=cmd_play)

    p = sub.add_parser("boxgame", help="box-game criterion, optionally vs minimax")
    p.add_argument("--sizes", required=True, help="comma-separated box sizes")
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--solve", action="store_true", help="cross-check by minimax")
    p.add_argument("--budget", type=int, default=None)
    add_out(p)
    p.set_defaults(fn=cmd_boxgame, search="box-game solver")

    p = sub.add_parser("goodset", help="greedy good set and the harmonic criterion")
    add_graph(p)
    p.add_argument("--b", type=int, default=2)
    add_out(p)
    p.set_defaults(fn=cmd_goodset)

    p = sub.add_parser("telemetry", help="per-vertex trace report from a game log")
    p.add_argument("--log", required=True, help="JSON-lines move log")
    add_graph(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--variant", choices=sorted(VARIANTS), default="skip")
    p.add_argument("--mode", choices=[STRICT, MODIFIED], default=MODIFIED)
    p.add_argument("--lambda", dest="lam", default="1/10")
    p.add_argument("--c", default="1/1000")
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-json", default=None)
    p.set_defaults(fn=cmd_telemetry)

    p = sub.add_parser("accept", help="run the acceptance criteria suite")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    add_out(p)
    p.set_defaults(fn=cmd_accept)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # checked here, not only by the search, since some inputs run none
        if getattr(args, "budget", None) is not None:
            check_budget(args.budget, args.search)
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded after {exc.nodes} nodes", file=sys.stderr)
        return 1
    except (StrategyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: search too deep for the Python stack", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
