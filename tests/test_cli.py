import math
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from ctxlm import cli, evaluation, fusion, training
from ctxlm.cli import SynthSpec, generate_synthetic, main
from ctxlm.corpus import Vocabulary, build_vocabulary, encode_documents, load_corpus
from support import choice_synthetic


TRAIN_TEXT = """a b c
b c
a a d

c d a
d b
a c c

b d
a b a
c a
"""

VALID_TEXT = """a c
b d a

c b
a d
"""


def write_corpora(tmp_path):
    train = tmp_path / "train.txt"
    valid = tmp_path / "valid.txt"
    train.write_text(TRAIN_TEXT, encoding="utf-8")
    valid.write_text(VALID_TEXT, encoding="utf-8")
    return train, valid


def write_config(tmp_path, **overrides):
    train, valid = write_corpora(tmp_path)
    cfg = dict(variant="RLM-BoW-LF", n=1, d_h=3, d_emb=3, d_ctx=2, vocab_size=8,
               max_len=10, batch_size=4, max_epochs=2, patience=4, seed=3,
               precision="f64", train_path=str(train), valid_path=str(valid))
    cfg.update(overrides)
    path = tmp_path / "train.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items() if v is not None),
                    encoding="utf-8")
    return path


# -- synth ----------------------------------------------------------------------


def test_synth_is_deterministic_and_well_formed(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = ["synth", "--topics", "3", "--vocab", "20", "--docs", "4",
            "--valid-docs", "2", "--test-docs", "2", "--sentences", "3",
            "--len-min", "2", "--len-max", "4", "--sharpness", "10", "--seed", "5"]
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    for split in ("train", "valid", "test"):
        b1 = (out1 / f"{split}.txt").read_bytes()
        assert b1 == (out2 / f"{split}.txt").read_bytes()
    text = (out1 / "train.txt").read_text(encoding="utf-8")
    docs = [blk.splitlines() for blk in text.strip().split("\n\n")]
    assert len(docs) == 4
    assert all(len(d) == 3 for d in docs)
    for doc in docs:
        for line in doc:
            tokens = line.split()
            assert 2 <= len(tokens) <= 4
            assert all(t.startswith("t") and int(t[1:]) < 20 for t in tokens)


def test_synth_sharpness_limit_concentrates_topics():
    spec = SynthSpec(topics=3, vocab=50, train_docs=6, valid_docs=1, test_docs=1,
                     sentences=4, len_min=5, len_max=5, sharpness=1e6, seed=2)
    text = generate_synthetic(spec)["train"]
    for block in text.strip().split("\n\n"):
        types = {t for line in block.splitlines() for t in line.split()}
        assert len(types) <= 2  # near-one-hot topics make documents near-single-token


SMALL_SYNTH = dict(topics=3, vocab=40, train_docs=12, valid_docs=3, test_docs=4,
                   sentences=5, len_min=1, len_max=9, sharpness=5.0)
SYNTH_EDGES = {
    "several-topics": {},
    "one-topic": dict(topics=1),
    "one-word": dict(vocab=1),
    "fixed-length": dict(len_min=6, len_max=6),
    "flat-topics": dict(sharpness=1e-3),
    "one-hot-topics": dict(sharpness=1e6),  # rows full of zero-probability words
}


@pytest.mark.parametrize("seed", [0, 3, 2**40 + 1])
@pytest.mark.parametrize("edge", list(SYNTH_EDGES))
def test_synth_draws_what_rng_choice_draws(edge, seed):
    """The generator's cumulative distributions, built once per topic, draw
    the corpus that ``rng.choice(p=...)`` per sentence drew, byte for byte."""
    spec = SynthSpec(**{**SMALL_SYNTH, **SYNTH_EDGES[edge], "seed": seed})
    assert generate_synthetic(spec) == choice_synthetic(spec)


def test_synth_draws_the_ac4_corpus_rng_choice_draws():
    spec = SynthSpec(topics=5, vocab=200, train_docs=2000, valid_docs=200,
                     test_docs=200, sentences=10, len_min=8, len_max=12,
                     sharpness=20.0, seed=101)
    assert generate_synthetic(spec) == choice_synthetic(spec)


@pytest.mark.parametrize("row", [[0.5, -0.1, 0.6], [0.5, math.nan, 0.5], [0.0, 0.0, 0.0],
                                 [0.5, math.inf, 0.0], [0.3, 0.3, 0.3]])
def test_synth_topic_that_is_not_a_distribution_is_refused(row):
    """Each topic is checked once, as ``rng.choice`` checks ``p`` on every call,
    so no draw can index past the vocabulary."""
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(3, p=row)
    with pytest.raises(training.ConfigError, match="topic 2 is not a probability distribution"):
        cli._cumulative(2, np.array(row))


@pytest.mark.parametrize("method, message", [
    ("dirichlet", "synth topic distributions of shape (2, 30) do not fit in memory"),
    ("random", "synth sentence of 4 tokens does not fit in memory"),
])
def test_synth_memory_cannot_hold_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                     method, message):
    """Sizes within numpy's index range but beyond memory (numpy raises
    MemoryError) exit 1 with one line naming what did not fit, and leave no
    output directory; the allocation is made to fail, never requested for real."""
    default_rng = np.random.default_rng

    class Refusing:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            if name != method:
                return getattr(self.rng, name)

            def refuse(*args, **kwargs):
                raise MemoryError("Unable to allocate")
            return refuse

    monkeypatch.setattr(np.random, "default_rng", Refusing)
    out = tmp_path / "out"
    assert main(["synth", "--out-dir", str(out), "--topics", "2", "--vocab", "30",
                 "--docs", "2", "--len-min", "4", "--len-max", "4"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-2"])
def test_synth_rejects_non_finite_or_non_positive_sharpness(tmp_path, capsys, value):
    code = main(["synth", "--out-dir", str(tmp_path / "s"), "--docs", "2",
                 "--sharpness", value])
    captured = capsys.readouterr()
    assert code == 1 and "sharpness" in captured.err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command", ["train", "synth"])
def test_negative_seed_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--config", str(write_config(tmp_path, seed=-1)), "--out", str(out)]
    else:
        argv = ["synth", "--out-dir", str(out), "--docs", "2", "--seed", "-1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed must be non-negative" in err
    assert not out.exists()


def test_synth_validation():
    with pytest.raises(training.ConfigError):
        SynthSpec(topics=0, vocab=5, train_docs=1, valid_docs=1, test_docs=1,
                  sentences=1, len_min=1, len_max=2, sharpness=1.0, seed=0)
    with pytest.raises(training.ConfigError):
        SynthSpec(topics=1, vocab=5, train_docs=1, valid_docs=1, test_docs=1,
                  sentences=1, len_min=3, len_max=2, sharpness=1.0, seed=0)


# -- sizes numpy cannot hold ------------------------------------------------------


@pytest.mark.parametrize("command, option, value", [
    ("train", "d_h", 10**30), ("train", "d_h", 2**40),  # 2**40: the (d_h, d_h) U overflows
    ("ngram", "--order", 10**30),
    ("synth", "--vocab", 10**30), ("synth", "--topics", 10**30), ("synth", "--len-max", 10**30),
])
def test_sizes_numpy_cannot_hold_are_config_errors(tmp_path, capsys, command, option, value):
    """An integer option that sizes an array beyond numpy's index range exits
    1 with a config error before any corpus is read or output written: the
    corpora named do not exist, and a read would exit 2."""
    missing = str(tmp_path / "missing.txt")
    out = tmp_path / "out"
    if command == "train":
        cfg = write_config(tmp_path, **{option: value}, train_path=missing, valid_path=missing)
        argv = ["train", "--config", str(cfg), "--out", str(out)]
    elif command == "ngram":
        argv = ["ngram", option, str(value), "--train", missing, "--eval", missing]
    else:
        argv = ["synth", "--out-dir", str(out), option, str(value)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "too large for an array" in err
    assert not out.exists()


def test_parameter_memory_cannot_hold_is_a_config_error(tmp_path, capsys, monkeypatch):
    """A parameter within numpy's index range but beyond memory (numpy raises
    MemoryError) exits 1 with one line naming it; the allocation is made to
    fail, never requested for real."""
    from ctxlm import numeric

    uniform_init = numeric.uniform_init

    def failing(rng, shape, dtype):
        if shape == (2, 3):  # W_p's shape, and no other parameter's
            raise MemoryError("Unable to allocate")
        return uniform_init(rng, shape, dtype)

    monkeypatch.setattr(numeric, "uniform_init", failing)
    out = tmp_path / "m.ckpt"
    assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[1:] == ["config error: parameter W_p of shape (2, 3) does not fit in memory"]
    assert not out.exists()


# -- train ------------------------------------------------------------------------


def test_train_happy_path_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
    assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.exists() and (tmp_path / "m1.ckpt.log.csv").exists()
    assert out1.read_bytes() == out2.read_bytes()

    def strip_seconds(path):
        return [ln.rsplit(",", 1)[0] for ln in path.read_text().splitlines()]

    log1 = strip_seconds(tmp_path / "m1.ckpt.log.csv")
    log2 = strip_seconds(tmp_path / "m2.ckpt.log.csv")
    assert log1 == log2 and len(log1) == 2
    for line in log1:
        epoch, train_nll, valid_nll = line.split(",")
        int(epoch), float(train_nll), float(valid_nll)


# max |a - b| / max |a| over the arrays of the model below, trained at 1 and
# at 2 OpenBLAS threads: measured 3.6e-16 to 5.5e-16 for synth seeds 1-7 and
# 0 for seed 8 (OpenBLAS 0.3.31, 2 vCPUs); the bound leaves a factor of about
# 2,000 for other CPUs' kernels
BLAS_THREADS_RTOL = 1e-12


def test_f64_training_is_bit_reproducible_at_one_blas_thread_count(tmp_path):
    """f64 training with one seed writes the same checkpoint, byte for byte,
    at one BLAS thread count. At another, BLAS splits its products otherwise
    and rounds them otherwise, so every array may differ, but only by
    rounding. Each run is a child process: OpenBLAS reads its thread count
    once, when it loads."""
    synth = ["synth", "--topics", "3", "--vocab", "200", "--docs", "60", "--valid-docs", "4",
             "--test-docs", "1", "--sentences", "4", "--len-min", "4", "--len-max", "8",
             "--seed", "2", "--out-dir", str(tmp_path / "corpus")]
    assert main(synth) == 0
    # d = 64 and batch 32: products large enough for OpenBLAS to split them
    cfg = write_config(tmp_path, n=2, d_h=64, d_emb=64, d_ctx=64, vocab_size=200,
                       batch_size=32, train_path=tmp_path / "corpus" / "train.txt",
                       valid_path=tmp_path / "corpus" / "valid.txt")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

    def train_in_child(out, threads):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-m", "ctxlm.cli", "train", "--config", str(cfg),
                              "--out", str(tmp_path / out)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr[-2000:]
        return tmp_path / out

    one, again, two = (train_in_child(out, threads) for out, threads in
                       (("one.ckpt", "1"), ("again.ckpt", "1"), ("two.ckpt", "2")))
    assert one.read_bytes() == again.read_bytes()
    a, b = training.load_checkpoint(one), training.load_checkpoint(two)
    assert list(a.arrays) == list(b.arrays) and a.epoch == b.epoch
    for name, value in a.arrays.items():
        assert np.max(np.abs(value - b.arrays[name])) <= BLAS_THREADS_RTOL * np.max(np.abs(value)), name


@pytest.mark.parametrize("key", ["eps", "clip_norm"])
def test_train_non_finite_eps_or_clip_norm_is_config_error(tmp_path, capsys, key):
    cfg = write_config(tmp_path, **{key: "nan"})
    out = tmp_path / "m.ckpt"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_train_missing_path_key_names_it(tmp_path, capsys):
    cfg = write_config(tmp_path, train_path=None)
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")])
    assert code == 1
    assert "train_path" in capsys.readouterr().err


def test_train_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path)
    cfg.write_text(cfg.read_text() + "momentum = 0.9\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]) == 1
    assert "momentum" in capsys.readouterr().err


def test_train_config_naming_a_test_path_is_rejected(tmp_path, capsys):
    """Training reads no test corpus, so a test_path key is unknown rather
    than silently ignored."""
    cfg = write_config(tmp_path, test_path=str(tmp_path / "valid.txt"))
    out = tmp_path / "m.ckpt"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert "unknown config key 'test_path'" in capsys.readouterr().err
    assert not out.exists()


def test_train_missing_config_file(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "m.ckpt")]) == 1


def test_train_config_that_is_a_directory_is_config_error(tmp_path, capsys):
    """Any error reading the config, not only a missing file, exits 1 and
    names the path; a directory used to exit 2."""
    assert main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "m.ckpt")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {tmp_path}: Is a directory"]


def test_train_config_with_invalid_utf8_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    cfg.write_bytes(cfg.read_bytes() + b"# \xff\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]) == 1
    assert "invalid UTF-8" in capsys.readouterr().err


def test_train_config_with_byte_order_mark(tmp_path, capsys):
    """A config saved with a UTF-8 byte-order mark trains the checkpoint it
    trains without one, byte for byte; an invalid byte after the mark is
    reported at its offset from the file's start."""
    cfg = write_config(tmp_path)
    marked = tmp_path / "marked.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
    plain_out, marked_out = tmp_path / "plain.ckpt", tmp_path / "marked.ckpt"
    assert main(["train", "--config", str(cfg), "--out", str(plain_out)]) == 0
    assert main(["train", "--config", str(marked), "--out", str(marked_out)]) == 0
    assert marked_out.read_bytes() == plain_out.read_bytes()
    capsys.readouterr()
    marked.write_bytes(b"\xef\xbb\xbf# \xff\n" + cfg.read_bytes())
    assert main(["train", "--config", str(marked), "--out", str(tmp_path / "m.ckpt")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {marked}: invalid UTF-8 at byte 5"]


@pytest.mark.parametrize("corpus", ["missing", "directory"])
def test_train_missing_corpus_is_data_error(tmp_path, capsys, corpus):
    """A training corpus that is missing or is a directory exits 2 with one
    error line, reported once."""
    path = tmp_path / "missing.txt" if corpus == "missing" else tmp_path
    cfg = write_config(tmp_path, train_path=str(path))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_train_empty_training_set_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path, max_len=1)  # every training sentence is longer
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]) == 2
    assert "no training windows" in capsys.readouterr().err


def test_train_empty_validation_set_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path, max_len=3)
    (tmp_path / "valid.txt").write_text("a b c d\n\nd c b a\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]) == 2
    assert "no validation windows" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["nodir/m.ckpt", "."])
def test_train_unwritable_out_fails_before_training(tmp_path, capsys, out):
    """An --out in a missing directory, or one that is a directory, exits 2
    before any corpus is read: no epoch is trained and no file is written."""
    cfg = write_config(tmp_path)
    before = sorted(p.name for p in tmp_path.rglob("*"))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert "--out" in err
    assert not re.search(r"^\d+,", err, re.MULTILINE)  # no epoch line
    assert "training" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


# -- eval -------------------------------------------------------------------------


def fresh_checkpoint(tmp_path, variant="RLM", vocab_tokens=8, seed=1, d=4):
    """Checkpoint of an untrained (uniform-ish) model, for evaluation tests."""
    vocab = Vocabulary(["<unk>", "</s>"] + [chr(ord("a") + i) for i in range(vocab_tokens)])
    config = training.TrainConfig(variant=variant, n=1, d_h=d, d_emb=d, d_ctx=d,
                                  vocab_size=len(vocab), batch_size=4, max_epochs=1,
                                  patience=1, seed=seed)
    ckpt = training._initial_checkpoint(config, fusion.parse_variant(variant), vocab)
    path = tmp_path / "fresh.ckpt"
    training.save_checkpoint(ckpt, path)
    return path


def test_eval_near_uniform_perplexity(tmp_path, capsys):
    ckpt = fresh_checkpoint(tmp_path, vocab_tokens=8)  # |V| = 10
    corpus = tmp_path / "eval.txt"
    corpus.write_text("a b c d\ne f\n\ng h a\n", encoding="utf-8")
    assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    header, row = out.strip().split("\n")
    assert header == "tag,count,mean_nll,perplexity"
    label, count, mean_nll, ppl = row.split(",")
    assert label == "ALL" and int(count) == 12
    assert abs(float(ppl) - 10.0) / 10.0 < 0.05


def test_eval_rlm_output_independent_of_n(tmp_path, capsys):
    ckpt = fresh_checkpoint(tmp_path)
    corpus = tmp_path / "eval.txt"
    corpus.write_text("a b\nc d\n\nb a c\n", encoding="utf-8")
    outputs = []
    for n in ("0", "4"):
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                     "--n", n]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_eval_with_tags_and_misalignment(tmp_path, capsys):
    ckpt = fresh_checkpoint(tmp_path)
    corpus = tmp_path / "eval.txt"
    corpus.write_text("a b\nc\n", encoding="utf-8")
    tags = tmp_path / "tags.txt"
    tags.write_text("NN VBZ\nDT\n", encoding="utf-8")
    assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                 "--tags", str(tags)]) == 0
    out = capsys.readouterr().out
    assert out.count("tag,count,mean_nll,perplexity") == 2
    assert "Noun" in out and "Verb" in out

    bad = tmp_path / "bad_tags.txt"
    bad.write_text("NN\nDT\n", encoding="utf-8")
    code = main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                 "--tags", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "document 0, sentence 0" in captured.err
    assert captured.out == ""


def test_pos_ppl_runs_the_forward_pass_once(tmp_path, capsys, monkeypatch):
    """Both reports of ``eval --tags`` come from one pass over the corpus, and
    stdout is what the two separate reports print."""
    ckpt = fresh_checkpoint(tmp_path, variant="RLM-SeqBoW-ATT-LF")
    corpus = tmp_path / "eval.txt"
    corpus.write_text("a b\nc\nd e a\n\nb\nc c d\n", encoding="utf-8")
    tags = tmp_path / "tags.txt"
    tags.write_text("NN VBZ\nDT\nNN JJ NNS\n\nVB\nDT DT NN\n", encoding="utf-8")
    calls = []
    batch_nll = fusion.batch_nll

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return batch_nll(*args, **kwargs)

    monkeypatch.setattr(fusion, "batch_nll", counted)
    assert main(["pos-ppl", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                 "--tags", str(tags), "--batch-size", "4"]) == 0
    out = capsys.readouterr().out
    assert calls == [4, 1]

    model = evaluation.Model.from_checkpoint(training.load_checkpoint(ckpt))
    with open(corpus, encoding="utf-8") as fh:
        docs = encode_documents(load_corpus(fh), model.vocab)
    with open(tags, encoding="utf-8") as fh:
        annotations = evaluation.load_tag_annotations(fh)
    expect = (evaluation.corpus_perplexity(model, docs, 1, batch_size=4).csv() + "\n" +
              evaluation.perplexity_by_tag(model, docs, annotations, 1, batch_size=4).csv())
    assert out == expect


def test_byte_order_marks_leave_the_reports_unchanged(tmp_path, capsys):
    """A corpus and a tag file saved with a UTF-8 byte-order mark give the
    reports that the same files without one give."""
    ckpt = fresh_checkpoint(tmp_path, variant="RLM-BoW-LF")
    outputs = []
    for mark in ("", "\ufeff"):
        corpus = tmp_path / f"eval{len(mark)}.txt"
        corpus.write_text(mark + "a b\nc\n\nd a c\n", encoding="utf-8")
        tags = tmp_path / f"tags{len(mark)}.txt"
        tags.write_text(mark + "NN VBZ\nDT\n\nNN JJ NN\n", encoding="utf-8")
        assert main(["pos-ppl", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                     "--tags", str(tags)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]


def test_eval_tags_with_invalid_utf8_is_data_error(tmp_path, capsys):
    ckpt = fresh_checkpoint(tmp_path)
    corpus = tmp_path / "eval.txt"
    corpus.write_text("a b\n", encoding="utf-8")
    tags = tmp_path / "tags.txt"
    tags.write_bytes(b"NN \xff\n")
    assert main(["pos-ppl", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                 "--tags", str(tags)]) == 2
    captured = capsys.readouterr()
    assert "invalid UTF-8" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags", [["--batch-size", "0"], ["--batch-size", "-1"],
                                   ["--top-k", "-1"], ["--n", "-1"]])
def test_eval_rejects_out_of_range_flags(tmp_path, capsys, flags):
    ckpt = fresh_checkpoint(tmp_path)
    corpus = tmp_path / "eval.txt"
    corpus.write_text("a b\nc\n", encoding="utf-8")
    tags = tmp_path / "tags.txt"
    tags.write_text("NN VBZ\nDT\n", encoding="utf-8")
    for command in ("eval", "pos-ppl"):
        assert main([command, "--checkpoint", str(ckpt), "--corpus", str(corpus),
                     "--tags", str(tags)] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flags[0] in captured.err


@pytest.mark.parametrize("flags", [["--average", "arithmetic"], ["--average", "geometric"],
                                   ["--top-k", "3"]])
def test_eval_tag_report_flags_need_tags(tmp_path, capsys, flags):
    """``--top-k`` and ``--average`` shape only the tag report: without
    ``--tags`` they are a config error, raised before the checkpoint is read."""
    corpus = tmp_path / "eval.txt"
    corpus.write_text("a b\n", encoding="utf-8")
    assert main(["eval", "--checkpoint", str(tmp_path / "absent.ckpt"), "--corpus", str(corpus)]
                + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flags[0]} needs --tags" in captured.err


def test_eval_top_k_zero_keeps_only_the_all_row(tmp_path, capsys):
    ckpt = fresh_checkpoint(tmp_path)
    corpus = tmp_path / "eval.txt"
    corpus.write_text("a b\nc\n", encoding="utf-8")
    tags = tmp_path / "tags.txt"
    tags.write_text("NN VBZ\nDT\n", encoding="utf-8")
    assert main(["pos-ppl", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                 "--tags", str(tags), "--top-k", "0"]) == 0
    tag_table = capsys.readouterr().out.split("\n\n")[1].strip().split("\n")
    assert tag_table[0] == "tag,count,mean_nll,perplexity"
    assert tag_table[1].startswith("ALL,3,") and len(tag_table) == 2


def test_pos_ppl_alias_requires_tags(tmp_path, capsys):
    ckpt = fresh_checkpoint(tmp_path)
    corpus = tmp_path / "eval.txt"
    corpus.write_text("a b\n", encoding="utf-8")
    tags = tmp_path / "tags.txt"
    tags.write_text("NN IN\n", encoding="utf-8")
    assert main(["pos-ppl", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                 "--tags", str(tags)]) == 0
    assert capsys.readouterr().out.count("tag,count,mean_nll,perplexity") == 2


def test_eval_and_pos_ppl_report_inf_beyond_the_float_range(tmp_path, capsys):
    """An f64 RLM on a synthetic corpus whose W_out is scaled by 1e6: its mean
    NLL runs to thousands of nats, whose exp overflows a float. Every
    perplexity reads inf, and both commands exit 0."""
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out-dir", str(corpus), "--topics", "2", "--vocab", "30",
                 "--docs", "20", "--valid-docs", "2", "--test-docs", "4", "--sentences",
                 "4", "--len-min", "3", "--len-max", "6", "--seed", "1"]) == 0
    with open(corpus / "train.txt", encoding="utf-8") as fh:
        vocab = build_vocabulary(load_corpus(fh), 40)
    config = training.TrainConfig(variant="RLM", n=2, d_h=8, vocab_size=40)
    ckpt = training._initial_checkpoint(config, fusion.parse_variant("RLM"), vocab)
    ckpt.arrays["W_out"] *= 1e6
    path = tmp_path / "big.ckpt"
    training.save_checkpoint(ckpt, path)
    test = corpus / "test.txt"
    tags = tmp_path / "test.tags"
    tags.write_text("".join(" ".join("NN" if i % 2 else "VB" for i in range(len(ln.split())))
                            + "\n" for ln in test.read_text(encoding="utf-8").splitlines()),
                    encoding="utf-8")
    capsys.readouterr()
    argv = ["--checkpoint", str(path), "--corpus", str(test)]
    assert main(["eval"] + argv) == 0
    for average in ("geometric", "arithmetic"):
        assert main(["pos-ppl"] + argv + ["--tags", str(tags), "--average", average]) == 0
    rows = [ln for ln in capsys.readouterr().out.splitlines() if ln and not ln.startswith("tag")]
    assert len(rows) == 1 + 2 * 4
    for row in rows:
        mean_nll, ppl = row.split(",")[2:]
        assert float(mean_nll) > 1000.0 and ppl == "inf"


def test_eval_warns_on_high_unk_rate(tmp_path, capsys):
    ckpt = fresh_checkpoint(tmp_path, vocab_tokens=2)  # vocab: a, b only
    corpus = tmp_path / "eval.txt"
    corpus.write_text("x y z q\na w\n", encoding="utf-8")
    assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus)]) == 0
    assert "unknown" in capsys.readouterr().err


def test_eval_bad_checkpoint_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    corpus = tmp_path / "c.txt"
    corpus.write_text("a\n", encoding="utf-8")
    assert main(["eval", "--checkpoint", str(bad), "--corpus", str(corpus)]) == 2


def test_eval_truncated_or_padded_checkpoint_is_data_error(tmp_path, capsys):
    blob = fresh_checkpoint(tmp_path).read_bytes()
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b\n", encoding="utf-8")
    bad = tmp_path / "bad.ckpt"
    for data in [blob[:cut] for cut in range(0, len(blob), 37)] + [blob + b"\x00"]:
        bad.write_bytes(data)
        assert main(["eval", "--checkpoint", str(bad), "--corpus", str(corpus)]) == 2
        assert "cannot read checkpoint" in capsys.readouterr().err


def test_eval_checkpoint_with_unknown_precision_or_no_epoch_is_data_error(tmp_path, capsys):
    """An array of unknown precision code, and a trailer without ``epoch``
    whose length field fits its shortened text, each exit 2 naming what is
    wrong, with nothing on stdout."""
    blob = fresh_checkpoint(tmp_path).read_bytes()
    (name_len,) = struct.unpack_from("<H", blob, 14)
    bad_code = bytearray(blob)
    bad_code[16 + name_len] = 7
    text_at = blob.rindex(b"variant = ")  # the trailer's first line
    text = blob[text_at:]
    assert struct.unpack_from("<I", blob, text_at - 4) == (len(text),)
    no_epoch = re.sub(rb"(?m)^epoch = \d+\n", b"", text)
    assert len(no_epoch) < len(text)
    cases = {
        f"array {blob[16 : 16 + name_len].decode()} has unknown precision code 7": bad_code,
        "trailer lacks epoch":
            blob[: text_at - 4] + struct.pack("<I", len(no_epoch)) + no_epoch,
    }
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b\n", encoding="utf-8")
    bad = tmp_path / "bad.ckpt"
    for message, data in cases.items():
        bad.write_bytes(data)
        code = main(["eval", "--checkpoint", str(bad), "--corpus", str(corpus)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err


def test_eval_checkpoint_holding_an_array_twice_is_data_error(tmp_path, capsys):
    """A copy of an array record spliced in after it, with the array count
    bumped: the second record would silently replace the first."""
    blob = fresh_checkpoint(tmp_path, variant="RLM-SeqBoW-ATT-LF").read_bytes()
    (count,) = struct.unpack_from("<I", blob, 10)
    (name_len,) = struct.unpack_from("<H", blob, 14)
    code, rank = blob[16 + name_len : 18 + name_len]
    dims = struct.unpack_from(f"<{rank}Q", blob, 18 + name_len)
    end = 18 + name_len + 8 * rank + math.prod(dims) * training.CODE_DTYPES[code].itemsize
    record = blob[14:end]
    data = blob[:10] + struct.pack("<I", count + 1) + record + blob[14:]
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b\n", encoding="utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(data)
    code = main(["eval", "--checkpoint", str(bad), "--corpus", str(corpus)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"array {blob[16 : 16 + name_len].decode()} appears twice" in captured.err


def test_eval_checkpoint_whose_vocabulary_is_out_of_order_is_data_error(tmp_path, capsys):
    """A trailer listing ``<unk> a </s> ...``: the vocabulary is refused, not
    reordered into one the file does not list."""
    blob = fresh_checkpoint(tmp_path).read_bytes()
    assert b"\nvocab = <unk> </s> a " in blob
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob.replace(b"\nvocab = <unk> </s> a ", b"\nvocab = <unk> a </s> "))
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b\n", encoding="utf-8")
    code = main(["eval", "--checkpoint", str(bad), "--corpus", str(corpus)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "must start with" in captured.err


def test_eval_checkpoint_whose_trailer_holds_a_test_path_evaluates(tmp_path, capsys):
    """Checkpoints of earlier versions may list a test_path in their trailer:
    the key is dropped on load and the report is the one without it."""
    path = fresh_checkpoint(tmp_path)
    blob = path.read_bytes()
    text_at = blob.rindex(b"variant = ")  # the trailer's first line
    text = b"test_path = corpus/test.txt\n" + blob[text_at:]
    earlier = tmp_path / "earlier.ckpt"
    earlier.write_bytes(blob[: text_at - 4] + struct.pack("<I", len(text)) + text)
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b\nc\n", encoding="utf-8")
    reports = []
    for ckpt in (path, earlier):
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_eval_checkpoint_with_wrong_parameters_is_data_error(tmp_path, capsys):
    """A checkpoint whose arrays do not fit its variant (a parameter missing,
    one too many, a wrong shape) exits 2 before any output."""
    path = fresh_checkpoint(tmp_path, variant="RLM-BoW-LF")
    ckpt = training.load_checkpoint(path)
    arrays = dict(ckpt.arrays)
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b\nc\n", encoding="utf-8")
    tags = tmp_path / "tags.txt"
    tags.write_text("X X\nX\n", encoding="utf-8")
    for bad in ({k: a for k, a in arrays.items() if k != "W_p"},
                {**arrays, "W_out": arrays["W_out"][:, :5]},
                {**arrays, "W_extra": arrays["b_r"]}):
        ckpt.arrays = bad
        training.save_checkpoint(ckpt, path)
        for flags in ([], ["--tags", str(tags)]):
            code = main(["eval", "--checkpoint", str(path), "--corpus", str(corpus)] + flags)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert "do not fit RLM-BoW-LF" in captured.err


# -- ngram ---------------------------------------------------------------------------


def test_ngram_near_one_perplexity_on_repeated_corpus(tmp_path, capsys):
    train = tmp_path / "t.txt"
    train.write_text(" ".join(["a"] * 400) + "\n", encoding="utf-8")
    assert main(["ngram", "--order", "1", "--train", str(train),
                 "--eval", str(train)]) == 0
    row = capsys.readouterr().out.strip().split("\n")[1]
    assert float(row.split(",")[-1]) < 1.1


def test_ngram_order5_unseen_token_finite(tmp_path, capsys):
    train, valid = write_corpora(tmp_path)
    test = tmp_path / "test.txt"
    test.write_text("a zebra c\n", encoding="utf-8")
    assert main(["ngram", "--order", "5", "--train", str(train),
                 "--eval", str(test)]) == 0
    ppl = float(capsys.readouterr().out.strip().split("\n")[1].split(",")[-1])
    assert math.isfinite(ppl) and ppl >= 1.0


def test_ngram_export(tmp_path, capsys):
    train, _ = write_corpora(tmp_path)
    arpa = tmp_path / "lm.arpa"
    assert main(["ngram", "--order", "2", "--train", str(train),
                 "--eval", str(train), "--export", str(arpa)]) == 0
    text = arpa.read_text(encoding="utf-8")
    assert text.startswith("\\data\\") and "\\2-grams:" in text


def test_ngram_export_failure_prints_nothing(tmp_path, capsys):
    train, _ = write_corpora(tmp_path)
    assert main(["ngram", "--order", "2", "--train", str(train),
                 "--eval", str(train), "--export", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(tmp_path) in captured.err


def test_ngram_rejects_order_zero(tmp_path, capsys):
    train, _ = write_corpora(tmp_path)
    assert main(["ngram", "--order", "0", "--train", str(train),
                 "--eval", str(train)]) == 1


@pytest.mark.parametrize("size", ["-3", "1"])
def test_ngram_rejects_out_of_range_vocab_size(tmp_path, capsys, size):
    train, _ = write_corpora(tmp_path)
    assert main(["ngram", "--order", "2", "--train", str(train), "--eval", str(train),
                 "--vocab-size", size]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--vocab-size" in captured.err


def test_ngram_order_whose_padding_numpy_cannot_hold_is_config_error(tmp_path, capsys):
    """--order 2**60 fits an int64 on its own, but one gram id per order and
    training token does not fit numpy's index range: exit 1 with a config
    error, raised before anything of that size is allocated."""
    train, _ = write_corpora(tmp_path)
    assert main(["ngram", "--order", str(2**60), "--train", str(train),
                 "--eval", str(train)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: --order") and "too large for an array" in captured.err


def test_ngram_order_whose_table_memory_cannot_hold_is_config_error(tmp_path, capsys,
                                                                   monkeypatch):
    """An order whose table does not fit in memory exits 1 with one config
    error line naming --order, before any order is counted: --order 2**40
    passes the index-range checks on a small corpus, but its gram ids, one
    per order and training token, do not fit (numpy raises MemoryError).
    Every request beyond 2**30 elements is made to fail, so nothing huge is
    requested."""
    train, _ = write_corpora(tmp_path)
    empty = np.empty

    def refusing(shape, *args, **kwargs):
        if np.prod(shape, dtype=np.float64) > 2**30:
            raise MemoryError("Unable to allocate")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refusing)
    assert main(["ngram", "--order", str(2**40), "--train", str(train),
                 "--eval", str(train)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"config error: --order {2**40}: the n-gram table "
                                         "for this order does not fit in memory"]


def test_ngram_missing_corpus(tmp_path):
    assert main(["ngram", "--order", "2", "--train", str(tmp_path / "nope.txt"),
                 "--eval", str(tmp_path / "nope.txt")]) == 2
