"""Command-line entry point.

Subcommands wire the library into end-to-end experiments: ``gen`` writes
seeded datasets, ``features`` enumerates and deduplicates the grammar,
``order`` prints a heuristic's ordering for one problem, ``search`` ranks
feature triplets against a cost oracle, ``train`` tunes network weights,
and ``check`` verifies the lexicographic/network agreement.

Exit codes: 0 success, 1 usage error, 2 data error, 3 property violation.
Every command writes a run manifest next to its outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import __version__
from .atomic import write_json, write_text
from .costmodel import (
    ExternalSolverAdapter,
    MissingRecordError,
    SolverError,
    SyntheticCostModel,
    TimingTable,
    load_timing_table,
)
from .datagen import GenConfig, load_dataset, parse_file, random_dataset, write_dataset
from .features import dedup_features, enumerate_descriptors, feature_matrix, load_feature_set
from .heuristics import INIT_WEIGHT, Rule, check_equivalence
from .search import search_triplets
from .training import NAMED_RULES, DivergenceError, TrainConfig, load_rule, save_checkpoint, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VIOLATION = 3

DATA_ERRORS = (MissingRecordError, SolverError, ValueError, OSError)

# A command whose output is a directory writes its manifest inside it.
RUN_MANIFEST = "run_manifest.json"


class UsageError(Exception):
    """Semantically invalid invocation discovered after flag parsing."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _sha256_path(path: Path) -> str | None:
    """Digest of a file, or of a directory's files except the run manifests written into it."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    if path.is_dir():
        h = hashlib.sha256()
        for f in sorted(path.rglob("*")):
            if f.is_file() and f.name != RUN_MANIFEST:
                h.update(f.name.encode())
                h.update(f.read_bytes())
        return h.hexdigest()
    return None


def _manifest_path(outputs) -> Path:
    """The run manifest's path: inside the first output if it is a directory, else beside it."""
    first = Path(outputs[0])
    return first / RUN_MANIFEST if first.is_dir() else first.with_name(first.name + ".manifest.json")


def _check_outputs(inputs, outputs, resume=None) -> None:
    """Refuse, before any work, an output (its manifest included) that is an input file.

    A ``--resume`` journal is read and appended, so it may be neither an
    input nor an output.  Either case is a usage error.
    """
    taken = set()
    for p in map(Path, inputs):
        taken.update(f.resolve() for f in [p, *(p.rglob("*") if p.is_dir() else ())])
    for out in [*map(Path, outputs), _manifest_path(outputs)]:
        if out.resolve() in taken:
            raise UsageError(f"output {out} is an input of this run")
        taken.add(out.resolve())
    if resume is not None and Path(resume).resolve() in taken:
        raise UsageError(f"--resume {resume} is an input or an output of this run")


def _write_manifest(command: str, args, inputs, outputs, started: float, **stage_s) -> None:
    """Write the run manifest; ``stage_s`` adds per-stage times, in seconds."""
    manifest = {
        **{k: round(v, 6) for k, v in stage_s.items()},
        "command": command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "inputs": {str(p): _sha256_path(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256_path(Path(p)) for p in outputs},
        "tool_version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    write_json(_manifest_path(outputs), manifest)


def _add_oracle_flags(sub) -> None:
    sub.add_argument(
        "--oracle",
        default="synthetic",
        help="synthetic | table:<csv> | cmd:<template with {problem_file} {ordering}>",
    )
    sub.add_argument("--step-base", type=float, default=SyntheticCostModel.step_base,
                     help="synthetic oracle step base")
    sub.add_argument("--noise-seed", type=int, default=SyntheticCostModel.noise_seed,
                     help="synthetic oracle noise seed")
    sub.add_argument("--noise-scale", type=float, default=SyntheticCostModel.noise_scale,
                     help="synthetic oracle noise scale")
    sub.add_argument("--timeout", type=float, default=None, help="timeout seconds (table/cmd oracle)")
    sub.add_argument("--penalty", type=float, default=TimingTable.penalty_factor,
                     help="timeout penalty factor")


def _split_oracle(spec: str) -> tuple[str, str]:
    """An ``--oracle`` value cut after its first colon, e.g. ``("table:", "t.csv")``."""
    kind, colon, arg = spec.partition(":")
    return kind + colon, arg


def _build_oracle(args):
    kind, arg = _split_oracle(args.oracle)
    if kind == "synthetic":
        return SyntheticCostModel(args.step_base, args.noise_seed, args.noise_scale)
    if kind == "table:":
        return load_timing_table(arg, args.timeout, args.penalty)
    if kind != "cmd:":
        raise ValueError(f"--oracle {args.oracle!r}: unknown oracle")
    if args.timeout is None:
        raise ValueError("cmd oracle requires --timeout")
    try:
        return ExternalSolverAdapter(arg, args.timeout, args.penalty)
    except ValueError as e:
        raise ValueError(f"--oracle {args.oracle!r}: {e}") from None


def _oracle_inputs(args) -> list[str]:
    """The timing table that a ``table:`` oracle reads, if any."""
    kind, arg = _split_oracle(args.oracle)
    return [arg] if kind == "table:" else []


def _rule_inputs(spec: str) -> list[str]:
    """The triplet file or checkpoint that ``load_rule(spec)`` reads, if any."""
    return [] if spec in NAMED_RULES else [spec]


def cmd_gen(args) -> int:
    started = time.perf_counter()
    try:
        cfg = GenConfig(**{f.name: getattr(args, f.name) for f in fields(GenConfig)})
    except ValueError as e:
        raise UsageError(str(e)) from None
    problems = random_dataset(cfg, args.count)
    generated = time.perf_counter()
    out = write_dataset(problems, args.out, cfg)
    written = time.perf_counter()
    _write_manifest("gen", args, [], [out], started,
                    generate_s=generated - started, write_s=written - generated)
    print(f"wrote {len(problems)} problems to {out}")
    return EXIT_OK


def cmd_features(args) -> int:
    started = time.perf_counter()
    candidates = enumerate_descriptors()
    fs = dedup_features(candidates)
    fs.save(args.out)
    _write_manifest("features", args, [], [args.out], started)
    print(f"{len(candidates)} valid descriptors -> {len(fs)} classes")
    return EXIT_OK


def cmd_order(args) -> int:
    started = time.perf_counter()
    inputs = [args.problem, *_rule_inputs(args.heuristic)]
    if args.out:
        _check_outputs(inputs, [args.out])
    problem = Path(args.problem)
    pr = parse_file(problem, problem.read_bytes(), problem.stem)
    rule = load_rule(args.heuristic)
    rows = feature_matrix(rule.triplet, pr)
    try:
        y = rule.scores(rows)
    except ValueError as e:
        raise ValueError(f"{args.heuristic}: {e} on {args.problem}") from None
    ordering = rule.order(rows)
    if args.reverse:
        ordering = ordering.reversed()
    if args.explain:
        for name, row in zip(pr.var_names, rows):
            print(f"{name}: features = {tuple(str(x) for x in row)}")
        for name, yv in zip(pr.var_names, y):
            print(f"{name}: y = {yv}")
    print(ordering.names(pr))
    if args.out:
        write_text(args.out, ordering.names(pr) + "\n")
        _write_manifest("order", args, inputs, [args.out], started)
    return EXIT_OK


def cmd_search(args) -> int:
    started = time.perf_counter()
    inputs = [args.pool, args.data, *_oracle_inputs(args)]
    outputs = [Path(args.out + ".json"), Path(args.out + ".csv")]
    _check_outputs(inputs, outputs, args.resume)
    fs = load_feature_set(args.pool)
    dataset = load_dataset(args.data)
    oracle = _build_oracle(args)
    loaded = time.perf_counter()
    report = search_triplets(fs, dataset, oracle, args.top_k, args.resume, args.jobs)
    searched = time.perf_counter()
    report.save_json(outputs[0])
    report.save_csv(outputs[1])
    _write_manifest("search", args, inputs, outputs, started,
                    load_s=loaded - started, search_s=searched - loaded)
    best = report.ranked[0]
    print(
        f"evaluated {report.triplet_count} triplets; best {best['features']} "
        f"cost {best['total_cost']:.6g} vs baseline {report.baseline['total_cost']:.6g}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    started = time.perf_counter()
    try:
        cfg = TrainConfig(
            learning_rate=args.lr,
            epochs=args.epochs,
            batch_size=args.batch_size,
            softmax_temperature=args.temperature,
            seed=args.seed,
            normalize=not args.no_normalize,
            validate_per_batch=args.validate_per_batch,
        )
    except ValueError as e:
        raise UsageError(str(e)) from None
    inputs = [args.train, args.val, *_rule_inputs(args.triplet), *_oracle_inputs(args)]
    outputs = [Path(args.out + ".json"), Path(args.out + ".ckpt.json")]
    _check_outputs(inputs, outputs)
    rule = load_rule(args.triplet)
    if rule.weights is not None:
        raise UsageError(f"--triplet {args.triplet}: training starts from a triplet, not a network")
    try:
        net = Rule.brown_init(rule.triplet, base_weight=args.init_weight)
    except ValueError as e:
        raise UsageError(f"--init-weight {args.init_weight}: {e}") from None
    train_set = load_dataset(args.train)
    val_set = load_dataset(args.val)
    oracle = _build_oracle(args)
    loaded = time.perf_counter()
    try:
        report = train(net, train_set, val_set, oracle, cfg)
    except DivergenceError as e:
        raise UsageError(str(e)) from None
    trained = time.perf_counter()
    write_json(outputs[0], report.to_json())
    save_checkpoint(outputs[1], report, rule.triplet)
    _write_manifest("train", args, inputs, outputs, started,
                    load_s=loaded - started, train_s=trained - loaded)
    print(
        f"epoch0 val cost {report.epoch0_val_cost:.6g} -> best (epoch {report.best_epoch}) "
        f"{report.best_val_cost:.6g}"
    )
    return EXIT_OK


def cmd_check(args) -> int:
    started = time.perf_counter()
    inputs = [args.data, *_rule_inputs(args.triplet)]
    if args.out:
        _check_outputs(inputs, [args.out])
    dataset = load_dataset(args.data)
    rule = load_rule(args.triplet)
    if rule.weights is not None and args.force_w is not None:
        raise UsageError(f"--force-w applies to a lexicographic rule, not to {args.triplet}")
    loaded = time.perf_counter()
    report = check_equivalence(dataset, rule, force_w=args.force_w)
    checked = time.perf_counter()
    payload = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    if args.out:
        write_text(args.out, payload)
        _write_manifest("check", args, inputs, [args.out], started,
                        load_s=loaded - started, check_s=checked - loaded)
    else:
        print(payload, end="")
    print(
        f"{report.total} problems, {len(report.mismatches)} mismatches, "
        f"{len(report.violations)} weight violations"
    )
    return EXIT_OK if report.ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cadorder", description=__doc__.split("\n\n")[1])
    parser.add_argument("--version", action="version", version=f"cadorder {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded random dataset")
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--out", required=True)
    for f in fields(GenConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("features", help="enumerate and deduplicate the feature grammar")
    p.add_argument("--out", required=True, help="feature-set JSON path")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("order", help="print a heuristic's variable ordering")
    p.add_argument("--heuristic", default="brown",
                   help="brown | nn (Brown's) | selected | <triplet.json> | <run.ckpt.json>")
    p.add_argument("--problem", required=True)
    p.add_argument("--reverse", action="store_true", help="flip the printed order")
    p.add_argument("--explain", action="store_true", help="print feature rows and layer-1 y")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("search", help="rank feature triplets against a cost oracle")
    p.add_argument("--pool", required=True, help="feature-set JSON")
    p.add_argument("--data", required=True, help="dataset dir")
    p.add_argument("--top-k", type=_positive_int, default=None)
    p.add_argument("--resume", default=None, help="journal of oracle prices")
    p.add_argument("--jobs", type=_positive_int, default=1, help="concurrent oracle calls")
    p.add_argument("--out", required=True, help="output path prefix")
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train", help="tune first-layer weights by gradient descent")
    p.add_argument("--triplet", default="selected", help="brown | selected | <triplet.json>")
    p.add_argument("--train", required=True, help="training dataset dir")
    p.add_argument("--val", required=True, help="validation dataset dir")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--temperature", type=float, default=TrainConfig.softmax_temperature)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--init-weight", type=float, default=INIT_WEIGHT)
    p.add_argument("--no-normalize", action="store_true", help="train on raw feature values")
    p.add_argument("--validate-per-batch", action="store_true")
    p.add_argument("--out", required=True, help="output path prefix")
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("check", help="verify lexicographic/network ordering agreement")
    p.add_argument("--data", required=True, help="dataset dir")
    p.add_argument("--triplet", default="brown",
                   help="brown | selected | <triplet.json> | <run.ckpt.json>")
    p.add_argument("--force-w", type=int, default=None, help="override the base weight")
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
