"""Command-line entry point wiring the library into reproducible
pipelines.

Every command resolves its configuration from flags plus an optional
INI-style config file (flat key=value under a section named after the
subcommand; flags override file values) and writes outputs atomically.
After a command succeeds, ``main`` writes a JSON run manifest beside its
first output recording the resolved config, input digests, seed,
artifact paths, and wall-clock duration; a failed command writes none.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Logs go to stderr; data only ever goes to files.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .errors import DataError, NumericalError, UsageError

# Heavy imports (numpy and the numeric modules) happen inside command
# handlers so that --deterministic can pin the BLAS thread count first.

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class _Repeatable(argparse._AppendAction):
    """``append`` whose first flag replaces the default list (a config
    file's values) instead of extending it."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest, None) is self.default:
            setattr(namespace, self.dest, None)
        super().__call__(parser, namespace, values, option_string)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 instead of 2, and
    repeatable flags that override a config file's list."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.register("action", "append", _Repeatable)

    def error(self, message: str) -> "None":
        self.exit(1, f"{self.prog}: error: {message}\n")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


@contextlib.contextmanager
def _flag_values():
    """Report a value rejected while turning flags into configs as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Run manifests.
# ---------------------------------------------------------------------------


def _write_manifest(args: argparse.Namespace, inputs: list, outputs: list, started: float) -> None:
    from .fileio import atomic_write_text, sha256_file

    config = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k not in ("func", "command", "config") and not k.startswith("_")
    }
    manifest = {
        "command": args.command,
        "config": config,
        "inputs": {str(p): sha256_file(p) for p in map(Path, inputs) if p.is_file()},
        "seed": getattr(args, "seed", None),
        "outputs": [str(o) for o in outputs],
        "duration_s": round(time.time() - started, 3),
    }
    primary = Path(str(outputs[0]))
    dest = primary / "manifest.json" if primary.is_dir() else Path(str(primary) + ".manifest.json")
    atomic_write_text(dest, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Shared loading helpers.
# ---------------------------------------------------------------------------


def _load_model(vocab_path, ckpt_path):
    """The vocab, and the checkpoint's params and optimizer state. A
    checkpoint made for a vocab of another size is refused: its token ids
    would select the wrong embedding rows."""
    from .trainer import load_checkpoint
    from .vocab import Vocab

    vocab = Vocab.load(vocab_path)
    params, state = load_checkpoint(ckpt_path)
    if params.config.vocab_size != len(vocab):
        raise DataError(
            f"{ckpt_path}: checkpoint has vocab_size {params.config.vocab_size}, "
            f"but {vocab_path} holds {len(vocab)} pieces"
        )
    return vocab, params, state


def _int_list(flag: str, value: str, form: str, sep: str = ",", count: int | None = None) -> list[int]:
    """The integers of a ``sep``-separated flag value. An empty or
    non-integer entry, or a count other than ``count``, is a usage error
    naming the flag and its ``form``."""
    try:
        numbers = [int(x) for x in value.split(sep)]
    except ValueError:
        numbers = None
    if numbers is None or count not in (None, len(numbers)):
        raise UsageError(f"{flag} wants {form}, got {value!r}")
    return numbers


def _read_mono(path, lang="und"):
    from .corpus import read_monolingual

    sentences = read_monolingual(path, default_lang=lang)
    if not sentences:
        raise DataError(f"{path}: no sentences")
    return sentences


def _encode_pool(params, vocab, sentences):
    from .encoder import encode_batch
    from .vocab import tokenize_sentence

    seqs = [tokenize_sentence(s, vocab, params.config.max_seq_len) for s in sentences]
    return encode_batch(params, seqs)


def _encoder_shape(args, num_layers: int):
    """The ``EncoderConfig`` of ``--hidden-dim``, ``--embed-dim`` and
    ``--max-seq-len``, checked before any input is read. Its vocab size
    is a placeholder 1; the caller sets the real one with ``replace``."""
    from .encoder import EncoderConfig

    return EncoderConfig(1, args.hidden_dim, num_layers, args.max_seq_len, args.embed_dim)


def _retrieval_inputs(src_pool, tgt_pool, gold_path):
    """Exact indexes over the source and target pools, and the gold
    alignment at ``gold_path`` checked against the ids of both."""
    from .evaluation import GoldAlignment, read_gold_tsv
    from .vecindex import read_pool

    gold = read_gold_tsv(gold_path)
    src, tgt = read_pool(src_pool), read_pool(tgt_pool)
    try:
        return src, tgt, GoldAlignment.from_pairs(sorted(gold.pairs), src.ids, tgt.ids)
    except ValueError as exc:
        raise DataError(f"{gold_path}: {exc}") from exc


def _retrieval_files(src_pool, tgt_pool, gold_path) -> list:
    """The files that ``_retrieval_inputs`` reads: each pool with its ids, and the gold file."""
    from .vecindex import pool_files

    return pool_files(src_pool) + pool_files(tgt_pool) + [gold_path]


# ---------------------------------------------------------------------------
# Command handlers. Each returns (inputs, outputs): the paths it read and
# the paths it wrote, first output first, for the run manifest.
# ---------------------------------------------------------------------------


def cmd_build_vocab(args) -> tuple[list, list]:
    from .vocab import build_vocab, check_build_options

    with _flag_values():
        check_build_options(args.smoothing, args.coverage)
    corpora: dict[str, list] = {}
    for path in args.mono or []:
        for s in _read_mono(path, args.lang):
            corpora.setdefault(s.lang, []).append(s)
    if args.pairs:
        from .corpus import read_pairs_tsv

        for p in read_pairs_tsv(args.pairs):
            corpora.setdefault(p.src.lang, []).append(p.src)
            corpora.setdefault(p.tgt.lang, []).append(p.tgt)
    if not corpora:
        raise UsageError("build-vocab needs --mono and/or --pairs")
    vocab = build_vocab(
        corpora,
        target_size=args.target_size,
        smoothing_exponent=args.smoothing,
        character_coverage=args.coverage,
    )
    vocab.save(args.out)
    _log(f"build-vocab: {len(vocab)} pieces -> {args.out}")
    return (args.mono or []) + ([args.pairs] if args.pairs else []), [args.out]


def cmd_pretrain(args) -> tuple[list, list]:
    from .corpus import read_pairs_tsv
    from .encoder import init_params
    from .trainer import PretrainConfig, Stage, pretrain, save_checkpoint
    from .vocab import Vocab

    layers = _int_list("--stage-layers", args.stage_layers, "comma-separated layer counts such as 1,2")
    steps = _int_list("--stage-steps", args.stage_steps, "comma-separated step counts such as 300,300")
    mix = _int_list("--mix", args.mix, "MLM:TLM, two integers such as 1:1", sep=":", count=2)
    with _flag_values():
        if len(layers) != len(steps):
            raise ValueError("--stage-layers and --stage-steps must list the same count")
        config = PretrainConfig(
            stages=tuple(map(Stage, layers, steps)),
            batch_size=args.batch_size,
            learning_rate=args.lr,
            seed=args.seed,
            mix=tuple(mix),
            mask_fraction=args.mask_fraction,
            mask_cap=args.mask_cap,
        )
        shape = _encoder_shape(args, config.stages[0].num_layers)
    vocab = Vocab.load(args.vocab)
    mono = []
    for path in args.mono or []:
        mono.extend(_read_mono(path))
    pairs = read_pairs_tsv(args.pairs) if args.pairs else []
    params = init_params(replace(shape, vocab_size=len(vocab)), seed=args.seed)
    log_path = Path(args.log) if args.log else Path(str(args.out) + ".log")
    with open(log_path, "w", encoding="utf-8") as log:
        params = pretrain(params, mono, pairs, config, vocab, log=log)
    save_checkpoint(params, None, args.out)
    _log(f"pretrain: {sum(s.steps for s in config.stages)} steps -> {args.out}")
    return (args.mono or []) + ([args.pairs] if args.pairs else []) + [args.vocab], [args.out, log_path]


def cmd_train(args) -> tuple[list, list]:
    from .corpus import read_pairs_tsv
    from .encoder import init_params
    from .trainer import TrainConfig, check_resumable, finetune_dual_encoder
    from .vocab import Vocab

    if args.init and args.resume:
        raise UsageError("train takes --init or --resume, not both")
    if args.checkpoint_interval < 0:
        raise UsageError(f"--checkpoint-interval must be >= 0, got {args.checkpoint_interval}")
    with _flag_values():
        config = TrainConfig(
            batch_size=args.batch_size,
            steps=args.steps,
            learning_rate=args.lr,
            margin=args.margin,
            scale=args.scale,
            shards=args.shards,
            seed=args.seed,
            weight_decay=args.weight_decay,
        )
        shape = None if args.init or args.resume else _encoder_shape(args, args.layers)
    if args.init or args.resume:
        vocab, params, state = _load_model(args.vocab, args.init or args.resume)
    else:
        vocab, state = Vocab.load(args.vocab), None
    pairs = read_pairs_tsv(args.pairs)
    if not pairs:
        raise DataError(f"{args.pairs}: no pairs")
    if args.resume:
        if state is None:
            raise DataError(f"{args.resume}: checkpoint has no optimizer state to resume")
        check_resumable(state, config)  # before the log is opened
    elif args.init:
        state = None
    else:
        params = init_params(replace(shape, vocab_size=len(vocab)), seed=args.seed)
    log_path = Path(args.log) if args.log else Path(str(args.out) + ".log")
    mode = "a" if args.resume else "w"
    with open(log_path, mode, encoding="utf-8") as log:
        params, state = finetune_dual_encoder(
            params,
            pairs,
            config,
            vocab,
            state=state,
            log=log,
            checkpoint_path=args.out,
            checkpoint_interval=args.checkpoint_interval,
        )
    _log(f"train: {state.step_count} steps -> {args.out}")
    return [args.pairs, args.vocab] + [p for p in (args.init, args.resume) if p], [args.out, log_path]


def cmd_encode(args) -> tuple[list, list]:
    from .vecindex import pool_files, write_pool

    vocab, params, _ = _load_model(args.vocab, args.ckpt)
    sentences = _read_mono(args.input)
    vectors = _encode_pool(params, vocab, sentences)
    write_pool(args.out, vectors, [s.id for s in sentences])
    _log(f"encode: {vectors.shape[0]} sentences -> {args.out}")
    return [args.input, args.vocab, args.ckpt], pool_files(args.out)


def cmd_index(args) -> tuple[list, list]:
    from .vecindex import IndexConfig, build, pool_files, read_pool, save_index

    config = None
    if args.clusters > 0:
        with _flag_values():
            config = IndexConfig(
                clusters=args.clusters,
                probes=args.probes,
                kmeans_iters=args.kmeans_iters,
                seed=args.seed,
            )
    pool = read_pool(args.pool)
    index = pool if config is None else build(pool.vectors, pool.ids, config)
    save_index(index, args.out)
    _log(f"index: {len(index)} vectors ({index.mode}) -> {args.out}")
    return pool_files(args.pool), [args.out]


def cmd_search(args) -> tuple[list, list]:
    from .fileio import atomic_write_text
    from .vecindex import check_k, index_files, load_index, pool_files, read_pool, search

    with _flag_values():
        check_k(args.k)
    index = load_index(args.index)
    queries = read_pool(args.queries)
    rows = [
        f"{qid}\t{rid}\t{score:.6f}"
        for qid, top in zip(queries.ids, search(index, queries.vectors, k=args.k))
        for rid, score in top
    ]
    atomic_write_text(args.out, "\n".join(rows) + ("\n" if rows else ""))
    _log(f"search: {len(queries)} queries -> {args.out}")
    return pool_files(args.queries) + index_files(args.index), [args.out]


def cmd_mine(args) -> tuple[list, list]:
    from .corpus import SentencePair, format_pairs_tsv
    from .evaluation import write_metrics_report
    from .fileio import atomic_write_text
    from .mining import MiningConfig, choose_query_side, mine, mining_report
    from .vecindex import IndexConfig, build

    with _flag_values():
        config = MiningConfig(
            similarity_threshold=args.threshold,
            neighbors_k=args.k,
            selection_fraction=args.fraction,
            direction=args.direction,
        )
        index_config = None
        if args.clusters > 0:
            index_config = IndexConfig(clusters=args.clusters, probes=args.probes, seed=args.seed)
    vocab, params, _ = _load_model(args.vocab, args.ckpt)
    side_a = _read_mono(args.src, args.src_lang)
    side_b = _read_mono(args.tgt, args.tgt_lang)
    swapped = config.direction == "auto" and choose_query_side(len(side_a), len(side_b)) == "b"
    queries, pool = (side_b, side_a) if swapped else (side_a, side_b)
    pool_vectors = _encode_pool(params, vocab, pool)
    index = build(pool_vectors, [s.id for s in pool], index_config)
    lookup = {s.id: s for s in pool}
    mined = mine(queries, index, lookup, params, vocab, config)
    if swapped:  # --src stays in the source columns
        mined = [SentencePair(p.tgt, p.src, p.score) for p in mined]
    report, selected = mining_report(mined, config, sources_processed=len(queries))
    atomic_write_text(args.out, format_pairs_tsv(selected))
    report_path = args.report or str(args.out) + ".report"
    write_metrics_report(report, report_path)
    _log(
        f"mine: {len(queries)} sources -> {len(mined)} pairs, "
        f"{report['pairs_post_dedup']} deduped, {len(selected)} selected -> {args.out}"
    )
    return [args.src, args.tgt, args.vocab, args.ckpt], [args.out, report_path, str(report_path) + ".json"]


def cmd_eval_p1(args) -> tuple[list, list]:
    from .evaluation import p_at_1, write_metrics_report

    src, tgt, gold = _retrieval_inputs(args.src_pool, args.tgt_pool, args.gold)
    value = p_at_1(src, tgt, gold)
    write_metrics_report({"p_at_1": value, "gold_pairs": len(gold.pairs)}, args.out)
    _log(f"eval-p1: P@1={value:.4f} -> {args.out}")
    return _retrieval_files(args.src_pool, args.tgt_pool, args.gold), [args.out, str(args.out) + ".json"]


def cmd_eval_tatoeba(args) -> tuple[list, list]:
    from .evaluation import tatoeba_accuracy, write_metrics_report

    groups = {}
    for group_str in args.group or []:
        name, sep, langs = group_str.partition("=")
        if not (sep and name and all(langs.split("+"))):
            raise UsageError(f"--group wants NAME=lang1+lang2+..., got {group_str!r}")
        if name in groups:
            raise UsageError(f"--group gives group {name!r} twice")
        groups[name] = langs.split("+")
    sets, inputs = {}, []
    for spec_str in args.set:
        lang, sep, rest = spec_str.partition("=")
        paths = rest.split(",")
        if not (sep and lang) or len(paths) != 3:
            raise UsageError(f"--set wants LANG=SRC_POOL,TGT_POOL,GOLD, got {spec_str!r}")
        if lang in sets:
            raise UsageError(f"--set gives language {lang!r} twice")
        sets[lang] = _retrieval_inputs(*paths)
        inputs += _retrieval_files(*paths)
    result = tatoeba_accuracy(sets, groups)
    metrics: dict[str, object] = {}
    for lang, acc in sorted(result.per_language.items()):
        metrics[f"acc_{lang}"] = acc
    for name, mean in sorted(result.group_means.items()):
        metrics[f"group_{name}"] = mean if mean is not None else "absent"
    for name, missing in sorted(result.missing.items()):
        metrics[f"missing_{name}"] = ",".join(missing)
    write_metrics_report(metrics, args.out)
    _log(f"eval-tatoeba: {len(sets)} languages -> {args.out}")
    return inputs, [args.out, str(args.out) + ".json"]


def cmd_eval_bucc(args) -> tuple[list, list]:
    from .evaluation import (
        bucc_best_f1,
        bucc_candidates,
        read_candidates_tsv,
        read_gold_tsv,
        write_metrics_report,
    )
    from .vecindex import check_k

    with _flag_values():
        check_k(args.k)
    if args.candidates and (args.src_pool or args.tgt_pool):
        raise UsageError("eval-bucc takes --candidates or --src-pool and --tgt-pool, not both")
    if not (args.candidates or (args.src_pool and args.tgt_pool)):
        raise UsageError("eval-bucc needs --candidates or both --src-pool and --tgt-pool")
    if args.candidates:
        gold = read_gold_tsv(args.gold)
        candidates = read_candidates_tsv(args.candidates)
        inputs = [args.candidates, args.gold]
    else:
        src, tgt, gold = _retrieval_inputs(args.src_pool, args.tgt_pool, args.gold)
        candidates = bucc_candidates(src, tgt, k=args.k)
        inputs = _retrieval_files(args.src_pool, args.tgt_pool, args.gold)
    prf = bucc_best_f1(candidates, gold)
    write_metrics_report(
        {
            "precision": prf.precision,
            "recall": prf.recall,
            "f1": prf.f1,
            "threshold": prf.threshold,
            "candidates": len(candidates),
            "gold_pairs": len(gold.pairs),
        },
        args.out,
    )
    _log(f"eval-bucc: F1={prf.f1:.4f} @ tau={prf.threshold:.4f} -> {args.out}")
    return inputs, [args.out, str(args.out) + ".json"]


def cmd_eval_sts(args) -> tuple[list, list]:
    from .evaluation import read_scores, sts_pearson, write_metrics_report
    from .vecindex import pool_files, read_pool

    a, b = read_pool(args.pool_a), read_pool(args.pool_b)
    if a.ids != b.ids or a.vectors.shape != b.vectors.shape:
        raise DataError("pool-a and pool-b must hold vectors of one dimension with the same ids, row for row")
    gold = read_scores(args.gold_scores)
    r = sts_pearson(list(zip(a.vectors, b.vectors)), gold)
    write_metrics_report({"pearson_r": r, "pairs": len(gold)}, args.out)
    _log(f"eval-sts: r={r:.4f} -> {args.out}")
    return pool_files(args.pool_a) + pool_files(args.pool_b) + [args.gold_scores], [args.out, str(args.out) + ".json"]


# ---------------------------------------------------------------------------
# Parser construction and config-file resolution.
# ---------------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="INI config file; flags override its values")
    sp.add_argument(
        "--deterministic",
        action="store_true",
        help="force single-threaded numerics (pins BLAS thread env vars)",
    )


def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="bitextmine", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bitextmine {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True
    fmt = argparse.ArgumentDefaultsHelpFormatter
    subs: dict[str, argparse.ArgumentParser] = {}

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text, formatter_class=fmt)
        sp.set_defaults(func=func, command=name)
        _add_common(sp)
        subs[name] = sp
        return sp

    sp = add("build-vocab", cmd_build_vocab, "induce a subword vocabulary")
    sp.add_argument("--mono", action="append", help="monolingual file (repeatable)")
    sp.add_argument("--pairs", help="bilingual TSV whose sides join the corpus")
    sp.add_argument("--lang", default="und", help="language for unprefixed lines")
    sp.add_argument("--target-size", type=int, required=True, help="piece count target")
    sp.add_argument("--smoothing", type=float, default=0.3, help="language smoothing exponent")
    sp.add_argument("--coverage", type=float, default=1.0, help="character coverage fraction")
    sp.add_argument("--out", required=True, help="vocab file to write")

    sp = add("pretrain", cmd_pretrain, "masked-token pretraining with stacking")
    sp.add_argument("--mono", action="append", help="monolingual file (repeatable)")
    sp.add_argument("--pairs", help="bilingual TSV for translation-pair batches")
    sp.add_argument("--vocab", required=True, help="vocab file")
    sp.add_argument("--out", required=True, help="checkpoint to write")
    sp.add_argument("--hidden-dim", type=int, default=32, help="hidden width")
    sp.add_argument("--embed-dim", type=int, default=0, help="output dim (0 = hidden)")
    sp.add_argument("--max-seq-len", type=int, default=16, help="max tokens per sequence")
    sp.add_argument("--stage-layers", default="1,2", help="layers per stage, CSV; each count must divide the next")
    sp.add_argument("--stage-steps", default="300,300", help="steps per stage, CSV")
    sp.add_argument("--batch-size", type=int, default=32, help="sequences per step")
    sp.add_argument("--lr", type=float, default=3e-3, help="initial learning rate")
    sp.add_argument("--mask-fraction", type=float, default=0.2, help="masked token fraction")
    sp.add_argument("--mask-cap", type=int, default=80, help="max masked tokens per sequence")
    sp.add_argument("--mix", default="1:1", help="MLM:TLM step mix per cycle")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    sp.add_argument("--log", help="training log path (default <out>.log)")

    sp = add("train", cmd_train, "dual-encoder fine-tuning on pairs")
    sp.add_argument("--pairs", required=True, help="bilingual TSV")
    sp.add_argument("--vocab", required=True, help="vocab file")
    sp.add_argument("--out", required=True, help="checkpoint to write")
    sp.add_argument("--init", help="initialize from this checkpoint")
    sp.add_argument("--resume", help="resume (params + optimizer) from this checkpoint")
    sp.add_argument("--hidden-dim", type=int, default=32, help="hidden width (fresh init)")
    sp.add_argument("--embed-dim", type=int, default=0, help="output dim (0 = hidden)")
    sp.add_argument("--layers", type=int, default=2, help="layer count (fresh init)")
    sp.add_argument("--max-seq-len", type=int, default=16, help="max tokens per sequence")
    sp.add_argument("--batch-size", type=int, default=64, help="pairs per step")
    sp.add_argument("--steps", type=int, default=2000, help="total training steps")
    sp.add_argument("--lr", type=float, default=1e-3, help="initial learning rate")
    sp.add_argument("--margin", type=float, default=0.3, help="additive margin")
    sp.add_argument("--scale", type=float, default=10.0, help="similarity scaling factor")
    sp.add_argument(
        "--shards",
        type=int,
        default=1,
        help="simulated accelerator shards; rows rank against cross-shard negatives, "
        "so the gradient equals the unsharded one",
    )
    sp.add_argument("--weight-decay", type=float, default=0.0, help="decoupled weight decay")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    sp.add_argument("--checkpoint-interval", type=int, default=0, help="steps between checkpoints (0 = end only)")
    sp.add_argument("--log", help="training log path (default <out>.log)")

    sp = add("encode", cmd_encode, "encode sentences into an embedding pool")
    sp.add_argument("--input", required=True, help="monolingual file")
    sp.add_argument("--vocab", required=True, help="vocab file")
    sp.add_argument("--ckpt", required=True, help="encoder checkpoint")
    sp.add_argument("--out", required=True, help="pool file to write (ids -> <out>.ids)")

    sp = add("index", cmd_index, "build a search index over a pool")
    sp.add_argument("--pool", required=True, help="embedding pool file")
    sp.add_argument("--out", required=True, help="index directory")
    sp.add_argument("--clusters", type=int, default=0, help="k-means clusters (0 = exact index)")
    sp.add_argument("--probes", type=int, default=1, help="clusters probed per search")
    sp.add_argument("--kmeans-iters", type=int, default=10, help="k-means iterations")
    sp.add_argument("--seed", type=int, default=0, help="clustering seed")

    sp = add("search", cmd_search, "query an index with a pool of embeddings")
    sp.add_argument("--index", required=True, help="index directory")
    sp.add_argument("--queries", required=True, help="query pool file")
    sp.add_argument("--k", type=int, default=1, help="neighbors per query")
    sp.add_argument("--out", required=True, help="results TSV (query_id, id, score)")

    sp = add("mine", cmd_mine, "mine parallel text from two monolingual files")
    sp.add_argument("--src", required=True, help="first monolingual file")
    sp.add_argument("--tgt", required=True, help="second monolingual file")
    sp.add_argument("--src-lang", default="src", help="language for unprefixed --src lines")
    sp.add_argument("--tgt-lang", default="tgt", help="language for unprefixed --tgt lines")
    sp.add_argument("--vocab", required=True, help="vocab file")
    sp.add_argument("--ckpt", required=True, help="encoder checkpoint")
    sp.add_argument("--threshold", type=float, default=0.6, help="cosine acceptance threshold")
    sp.add_argument("--k", type=int, default=1, help="neighbors per source")
    sp.add_argument("--fraction", type=float, default=0.2, help="top fraction kept after dedup")
    sp.add_argument(
        "--direction",
        default="auto",
        choices=("auto", "forward"),
        help="auto: smaller side queries the larger; forward: --src queries --tgt; --src fills the source columns",
    )
    sp.add_argument("--clusters", type=int, default=0, help="ANN clusters (0 = exact)")
    sp.add_argument("--probes", type=int, default=1, help="ANN probes")
    sp.add_argument("--seed", type=int, default=0, help="ANN clustering seed")
    sp.add_argument("--out", required=True, help="mined pairs TSV")
    sp.add_argument("--report", help="report path (default <out>.report)")

    sp = add("eval-p1", cmd_eval_p1, "precision@1 of a source pool against a target pool")
    sp.add_argument("--src-pool", required=True, help="source embedding pool")
    sp.add_argument("--tgt-pool", required=True, help="target embedding pool")
    sp.add_argument("--gold", required=True, help="gold TSV src_id<TAB>tgt_id")
    sp.add_argument("--out", required=True, help="report path")

    sp = add("eval-tatoeba", cmd_eval_tatoeba, "per-language accuracy with group averages")
    sp.add_argument(
        "--set",
        action="append",
        required=True,
        help="LANG=SRC_POOL,TGT_POOL,GOLD (repeatable)",
    )
    sp.add_argument("--group", action="append", help="NAME=lang1+lang2+... (repeatable)")
    sp.add_argument("--out", required=True, help="report path")

    sp = add("eval-bucc", cmd_eval_bucc, "best-F1 threshold sweep over candidates")
    sp.add_argument("--candidates", help="candidate TSV src_id<TAB>tgt_id<TAB>score")
    sp.add_argument("--src-pool", help="source pool (candidate generation)")
    sp.add_argument("--tgt-pool", help="target pool (candidate generation)")
    sp.add_argument("--k", type=int, default=1, help="candidates per source when generating")
    sp.add_argument("--gold", required=True, help="gold TSV")
    sp.add_argument("--out", required=True, help="report path")

    sp = add("eval-sts", cmd_eval_sts, "Pearson correlation of arccos similarities")
    sp.add_argument("--pool-a", required=True, help="first side pool")
    sp.add_argument("--pool-b", required=True, help="second side pool (same ids, row for row)")
    sp.add_argument("--gold-scores", required=True, help="one gold score per line")
    sp.add_argument("--out", required=True, help="report path")

    return parser, subs


def _named_config(parser: _Parser, subs: dict, argv: list[str]) -> argparse.Namespace | None:
    """The command and ``--config`` that ``argv`` names, from a silent
    parse in which no option is required (a config file may supply it);
    None if even that parse fails, so the real parse reports the error."""
    required = [a for sp in subs.values() for a in sp._actions if a.required]
    for action in required:
        action.required = False
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return parser.parse_known_args(argv)[0]
    except SystemExit:
        return None
    finally:
        for action in required:
            action.required = True


def _apply_config_file(path: str, command: str, sp: argparse.ArgumentParser) -> None:
    """Install config-file values as subparser defaults (flags still win).
    An option the file supplies is no longer required on the command line."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise DataError(f"config file {path!r} not found")
    if command not in cp:
        return
    section = cp[command]
    known = {a.dest: a for a in sp._actions}
    overrides = {}
    for raw_key, raw_value in section.items():
        key = raw_key.replace("-", "_")
        if key not in known:
            raise UsageError(f"config file {path!r}: unknown key {raw_key!r} for {command}")
        action = known[key]
        if isinstance(action, argparse._StoreTrueAction):
            overrides[key] = raw_value.strip().lower() in ("1", "true", "yes", "on")
        elif isinstance(action, argparse._AppendAction):
            overrides[key] = [v for v in raw_value.split() if v]
        elif action.type is not None:
            try:
                overrides[key] = action.type(raw_value)
            except ValueError as exc:
                raise UsageError(f"config file {path!r}: bad value {raw_value!r} for key {raw_key!r}") from exc
        else:
            overrides[key] = raw_value
        action.required = False
    sp.set_defaults(**overrides)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subs = build_parser()
    try:
        named = _named_config(parser, subs, argv)
        if named is not None and named.config:  # file values become subparser defaults
            _apply_config_file(named.config, named.command, subs[named.command])
        args = parser.parse_args(argv)
        if args.deterministic:
            for var in _THREAD_VARS:
                os.environ.setdefault(var, "1")
        started = time.time()
        inputs, outputs = args.func(args)
        _write_manifest(args, inputs, outputs, started)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        _log(f"bitextmine: usage error: {exc}")
        return 1
    except (DataError, OSError, ValueError) as exc:
        _log(f"bitextmine: data error: {exc}")
        return 2
    except NumericalError as exc:
        _log(f"bitextmine: numerical failure: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
