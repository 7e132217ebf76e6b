import contextlib
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrag import cli
from alignrag.data import SyntheticSpec, generate_synthetic, save_samples, write_corpus
from alignrag.errors import NonFiniteLoss
from alignrag.serialization import read_container, write_container


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus, dataset, config, and a trained checkpoint shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    samples, corpus = generate_synthetic(
        SyntheticSpec(seed=31, n_samples=4, n_gold_evidence=1, n_distractors=4)
    )
    data = root / "data.json"
    save_samples(data, samples)
    corpus_path = root / "corpus.jsonl"
    write_corpus(corpus_path, corpus)
    config = root / "config.json"
    config.write_text(
        json.dumps(
            {
                "encoder": {"dim": 12, "hidden": 10, "hash_buckets": 16},
                "retrieval": {"top_k": 3},
                "training": {"epochs": 10, "learning_rate": 0.02, "beta": 1.5},
            }
        )
    )
    ckpt = root / "model.ckpt"
    rc = cli.main(["train", str(data), "--out", str(ckpt), "--config", str(config)])
    assert rc == cli.EXIT_OK
    return {
        "root": root,
        "data": data,
        "corpus": corpus_path,
        "config": config,
        "ckpt": ckpt,
        "question": samples[0].question,
        "answer": samples[0].answer,
    }


class TestIndex:
    def test_builds_and_reruns_byte_identical(self, workdir, capsys):
        out1 = workdir["root"] / "a.idx"
        out2 = workdir["root"] / "b.idx"
        for out in (out1, out2):
            rc = cli.main(
                ["index", str(workdir["corpus"]), "--out", str(out), "--config", str(workdir["config"])]
            )
            assert rc == cli.EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert "indexed" in capsys.readouterr().out
        # Resolved config is written next to the artifact.
        resolved = json.loads((workdir["root"] / "a.idx.config.json").read_text())
        assert resolved["dim"] == 12
        assert resolved["top_k"] == 3

    def test_missing_corpus_is_io_error(self, workdir, capsys):
        rc = cli.main(["index", str(workdir["root"] / "nope.jsonl"), "--out", str(workdir["root"] / "x.idx")])
        assert rc == cli.EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_format_flag_is_a_usage_error(self, workdir):
        # Only query and generate print in a selectable format.
        with pytest.raises(SystemExit) as exc:
            cli.main(["index", str(workdir["corpus"]), "--out", str(workdir["root"] / "f.idx"), "--format", "json"])
        assert exc.value.code == 2


class TestQuery:
    @staticmethod
    @pytest.fixture(scope="class")
    def index_path(workdir):
        out = workdir["root"] / "query.idx"
        assert (
            cli.main(
                ["index", str(workdir["corpus"]), "--out", str(out), "--config", str(workdir["config"])]
            )
            == cli.EXIT_OK
        )
        return out

    def test_text_output(self, workdir, index_path, capsys):
        rc = cli.main(["query", str(index_path), workdir["question"], "--top-k", "2"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "rank\tid\tscore\talpha"
        assert len(lines) == 3

    def test_json_output_alphas_sum_to_one(self, workdir, index_path, capsys):
        rc = cli.main(
            ["query", str(index_path), workdir["question"], "--top-k", "3", "--format", "json"]
        )
        assert rc == cli.EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert sum(r["alpha"] for r in rows) == pytest.approx(1.0, abs=1e-9)

    def test_high_tau_empties_filter(self, workdir, index_path, capsys):
        rc = cli.main(["query", str(index_path), workdir["question"], "--tau", "2.0"])
        assert rc == cli.EXIT_EMPTY_FILTER
        assert "tau" in capsys.readouterr().err


class TestTrain:
    def test_writes_checkpoint_log_and_resolved_config(self, workdir):
        assert workdir["ckpt"].exists()
        log = json.loads((workdir["root"] / "model.ckpt.log.json").read_text())
        assert len(log) == 10 + 1  # init entry plus one per epoch
        resolved = json.loads((workdir["root"] / "model.ckpt.config.json").read_text())
        assert resolved["epochs"] == 10
        assert resolved["beta"] == 1.5

    def test_cli_flag_beats_config_file(self, workdir):
        out = workdir["root"] / "model2.ckpt"
        rc = cli.main(
            [
                "train",
                str(workdir["data"]),
                "--out",
                str(out),
                "--config",
                str(workdir["config"]),
                "--beta",
                "3.0",
            ]
        )
        assert rc == cli.EXIT_OK
        resolved = json.loads((workdir["root"] / "model2.ckpt.config.json").read_text())
        assert resolved["beta"] == 3.0  # CLI flag wins
        assert resolved["epochs"] == 10  # config file beats the default

    def test_reruns_are_byte_identical(self, workdir):
        a = workdir["root"] / "rep_a.ckpt"
        b = workdir["root"] / "rep_b.ckpt"
        for out in (a, b):
            rc = cli.main(
                ["train", str(workdir["data"]), "--out", str(out), "--config", str(workdir["config"])]
            )
            assert rc == cli.EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_key_is_io_error(self, workdir, capsys):
        bad = workdir["root"] / "bad_config.json"
        bad.write_text(json.dumps({"training": {"momentum": 0.9}}))
        rc = cli.main(
            ["train", str(workdir["data"]), "--out", str(workdir["root"] / "x.ckpt"), "--config", str(bad)]
        )
        assert rc == cli.EXIT_IO
        assert "momentum" in capsys.readouterr().err

    def test_removed_grad_check_key_is_io_error(self, workdir, capsys):
        bad = workdir["root"] / "grad_check_config.json"
        bad.write_text(json.dumps({"training": {"grad_check": True}}))
        rc = cli.main(
            ["train", str(workdir["data"]), "--out", str(workdir["root"] / "x.ckpt"), "--config", str(bad)]
        )
        assert rc == cli.EXIT_IO
        assert "grad_check" in capsys.readouterr().err

    def test_malformed_config_json_is_io_error(self, workdir, capsys):
        bad = workdir["root"] / "broken.json"
        bad.write_text("{not json")
        rc = cli.main(
            ["train", str(workdir["data"]), "--out", str(workdir["root"] / "x.ckpt"), "--config", str(bad)]
        )
        assert rc == cli.EXIT_IO

    def test_nonfinite_loss_exit_code(self, workdir, capsys, monkeypatch):
        def explode(dataset, config, vocab=None):
            raise NonFiniteLoss("non-finite loss at epoch 1")

        monkeypatch.setattr(cli, "train", explode)
        rc = cli.main(
            ["train", str(workdir["data"]), "--out", str(workdir["root"] / "x.ckpt")]
        )
        assert rc == cli.EXIT_NONFINITE
        assert "non-finite" in capsys.readouterr().err


class TestGenerate:
    def test_answers_question(self, workdir, capsys):
        rc = cli.main(
            [
                "generate",
                "--checkpoint",
                str(workdir["ckpt"]),
                "--corpus",
                str(workdir["corpus"]),
                "--question",
                workdir["question"],
                "--format",
                "json",
            ]
        )
        assert rc == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["question"] == workdir["question"]
        assert isinstance(doc["answer"], str)
        assert doc["evidence"]
        assert sum(e["alpha"] for e in doc["evidence"]) == pytest.approx(1.0, abs=1e-9)

    def test_high_tau_exit_code(self, workdir, capsys):
        rc = cli.main(
            [
                "generate",
                "--checkpoint",
                str(workdir["ckpt"]),
                "--corpus",
                str(workdir["corpus"]),
                "--question",
                workdir["question"],
                "--tau",
                "2.0",
            ]
        )
        assert rc == cli.EXIT_EMPTY_FILTER


class TestEval:
    def test_writes_report(self, workdir, capsys):
        out = workdir["root"] / "report.json"
        rc = cli.main(
            ["eval", str(workdir["data"]), "--checkpoint", str(workdir["ckpt"]), "--out", str(out)]
        )
        assert rc == cli.EXIT_OK
        assert "EM=" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["metrics"]["n_samples"] == 4
        # Defaults come from the checkpoint's stored config.
        resolved = json.loads((workdir["root"] / "report.json.config.json").read_text())
        assert resolved["beta"] == 1.5

    def test_reruns_byte_identical(self, workdir):
        a = workdir["root"] / "rep1.json"
        b = workdir["root"] / "rep2.json"
        for out in (a, b):
            rc = cli.main(
                ["eval", str(workdir["data"]), "--checkpoint", str(workdir["ckpt"]), "--out", str(out)]
            )
            assert rc == cli.EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_missing_checkpoint_is_io_error(self, workdir):
        rc = cli.main(
            ["eval", str(workdir["data"]), "--checkpoint", str(workdir["root"] / "nope.ckpt")]
        )
        assert rc == cli.EXIT_IO


class TestSweep:
    def test_beta_sweep_writes_all_formats(self, workdir, capsys):
        out = workdir["root"] / "sweep_beta"
        rc = cli.main(
            [
                "sweep",
                str(workdir["data"]),
                "--checkpoint",
                str(workdir["ckpt"]),
                "--param",
                "beta",
                "--grid",
                "0,1,4",
                "--out",
                str(out),
                "--svg",
            ]
        )
        assert rc == cli.EXIT_OK
        assert (workdir["root"] / "sweep_beta.json").exists()
        csv_text = (workdir["root"] / "sweep_beta.csv").read_text()
        assert csv_text.startswith("beta,em,f1,bleu,rouge_l,mean_consistency")
        svg = (workdir["root"] / "sweep_beta.svg").read_text()
        assert svg.startswith("<svg ")
        assert capsys.readouterr().out == csv_text

    def test_top_k_sweep(self, workdir):
        out = workdir["root"] / "sweep_k"
        rc = cli.main(
            [
                "sweep",
                str(workdir["data"]),
                "--checkpoint",
                str(workdir["ckpt"]),
                "--param",
                "top_k",
                "--grid",
                "1,2,4",
                "--out",
                str(out),
            ]
        )
        assert rc == cli.EXIT_OK
        doc = json.loads((workdir["root"] / "sweep_k.json").read_text())
        assert doc["param"] == "top_k"
        assert doc["grid"] == [1, 2, 4]

    def test_reruns_byte_identical(self, workdir):
        outs = []
        for tag in ("s1", "s2"):
            out = workdir["root"] / f"sweep_{tag}"
            rc = cli.main(
                [
                    "sweep",
                    str(workdir["data"]),
                    "--checkpoint",
                    str(workdir["ckpt"]),
                    "--param",
                    "beta",
                    "--grid",
                    "0,1,4",
                    "--out",
                    str(out),
                ]
            )
            assert rc == cli.EXIT_OK
            outs.append(out)
        assert outs[0].with_suffix(".json").read_bytes() == outs[1].with_suffix(".json").read_bytes()
        assert outs[0].with_suffix(".csv").read_bytes() == outs[1].with_suffix(".csv").read_bytes()


    @pytest.mark.parametrize(
        "param, grid",
        [
            ("beta", "1.0"),
            ("beta", "0,2,1"),
            ("top_k", "0,1,2"),
            ("top_k", "1.5,2.9,3"),
            ("beta", "a"),
            ("top_k", "1,inf"),
        ],
        ids=["beta-too-short", "beta-decreasing", "top_k-zero", "top_k-fractional", "non-number",
             "non-finite"],
    )
    def test_invalid_grid_is_io_error(self, workdir, param, grid, capsys):
        out = workdir["root"] / "sweep_invalid"
        rc = cli.main(
            ["sweep", str(workdir["data"]), "--checkpoint", str(workdir["ckpt"]),
             "--param", param, "--grid", grid, "--out", str(out)]
        )
        assert rc == cli.EXIT_IO
        assert "grid" in capsys.readouterr().err
        assert not out.with_suffix(".json").exists()


class TestCheckpointDefaults:
    """generate, eval and sweep all take unset settings from the checkpoint."""

    @staticmethod
    @pytest.fixture(scope="class")
    def ckpt(workdir):
        out = workdir["root"] / "k2.ckpt"
        rc = cli.main(
            [
                "train",
                str(workdir["data"]),
                "--out",
                str(out),
                "--config",
                str(workdir["config"]),
                "--top-k",
                "2",
                "--max-len",
                "5",
            ]
        )
        assert rc == cli.EXIT_OK
        return out

    def test_eval_and_sweep_resolve_identically(self, workdir, ckpt):
        root = workdir["root"]
        rc = cli.main(["eval", str(workdir["data"]), "--checkpoint", str(ckpt), "--out", str(root / "k2_report.json")])
        assert rc == cli.EXIT_OK
        rc = cli.main(
            [
                "sweep",
                str(workdir["data"]),
                "--checkpoint",
                str(ckpt),
                "--param",
                "beta",
                "--grid",
                "0,1,4",
                "--out",
                str(root / "k2_sweep"),
            ]
        )
        assert rc == cli.EXIT_OK
        eval_config = json.loads((root / "k2_report.json.config.json").read_text())
        sweep_config = json.loads((root / "k2_sweep.config.json").read_text())
        assert eval_config == sweep_config
        assert (eval_config["top_k"], eval_config["max_len"], eval_config["beta"]) == (2, 5, 1.5)
        sweep = json.loads((root / "k2_sweep.json").read_text())
        assert [(r["config"]["top_k"], r["config"]["max_len"]) for r in sweep["reports"]] == [(2, 5)] * 3

    def test_generate_uses_checkpoint_top_k_and_max_len(self, workdir, ckpt, capsys):
        rc = cli.main(
            [
                "generate",
                "--checkpoint",
                str(ckpt),
                "--corpus",
                str(workdir["corpus"]),
                "--question",
                workdir["question"],
                "--format",
                "json",
            ]
        )
        assert rc == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["evidence"]) == 2
        assert len(doc["answer"].split()) <= 5


class TestMalformedInput:
    @pytest.mark.parametrize("keep", [-16, 20], ids=["payload", "header"])
    def test_truncated_checkpoint_is_io_error(self, workdir, keep, capsys):
        bad = workdir["root"] / "truncated.ckpt"
        bad.write_bytes(workdir["ckpt"].read_bytes()[:keep])
        rc = cli.main(["eval", str(workdir["data"]), "--checkpoint", str(bad)])
        assert rc == cli.EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_truncated_index_is_io_error(self, workdir, capsys):
        path = workdir["root"] / "truncated.idx"
        rc = cli.main(["index", str(workdir["corpus"]), "--out", str(path), "--config", str(workdir["config"])])
        assert rc == cli.EXIT_OK
        path.write_bytes(path.read_bytes()[:-16])
        rc = cli.main(["query", str(path), workdir["question"]])
        assert rc == cli.EXIT_IO
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        ["5", '{"id": "x", "text": "alpha"}', '{"id": 1180591620717411303424, "text": "alpha"}'],
        ids=["non-object", "non-integer-id", "id-outside-int64"],
    )
    def test_malformed_corpus_line_is_io_error(self, workdir, line, capsys):
        path = workdir["root"] / "bad_corpus.jsonl"
        path.write_text('{"id": 0, "text": "alpha"}\n' + line + "\n")
        rc = cli.main(["index", str(path), "--out", str(workdir["root"] / "bad.idx")])
        assert rc == cli.EXIT_IO
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ['{"id": 1, "text": 5}', '{"id": 1, "text": null}'], ids=["integer", "null"]
    )
    def test_non_string_corpus_text_is_io_error(self, workdir, line, capsys):
        path = workdir["root"] / "bad_text.jsonl"
        path.write_text('{"id": 0, "text": "alpha"}\n' + line + "\n")
        rc = cli.main(["index", str(path), "--out", str(workdir["root"] / "bad.idx")])
        assert rc == cli.EXIT_IO
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r.update(answer=None),
            lambda r: r.update(question=5),
            lambda r: r["context"][0].__setitem__(0, 7),
            lambda r: r["context"][0][1].__setitem__(0, 3.5),
            lambda r: r["supporting_facts"][0].__setitem__(0, 7),
            lambda r: r.update(_id=12),
        ],
        ids=["null-answer", "integer-question", "integer-title", "non-string-sentence",
             "integer-fact-title", "integer-id"],
    )
    def test_non_string_field_is_io_error(self, workdir, edit, capsys):
        records = json.loads(workdir["data"].read_text())
        edit(records[0])
        path = workdir["root"] / "bad_types.json"
        path.write_text(json.dumps(records))
        rc = cli.main(["eval", str(path), "--checkpoint", str(workdir["ckpt"])])
        assert rc == cli.EXIT_IO
        assert "not a string" in capsys.readouterr().err

    def test_non_integer_supporting_fact_is_io_error(self, workdir, capsys):
        records = json.loads(workdir["data"].read_text())
        records[0]["supporting_facts"][0][1] = "first"
        path = workdir["root"] / "bad_data.json"
        path.write_text(json.dumps(records))
        rc = cli.main(["eval", str(path), "--checkpoint", str(workdir["ckpt"])])
        assert rc == cli.EXIT_IO
        assert "supporting fact" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["supporting_facts", "context"])
    def test_non_array_record_field_is_io_error(self, workdir, field, capsys):
        records = json.loads(workdir["data"].read_text())
        records[0][field] = 5
        path = workdir["root"] / "bad_field.json"
        path.write_text(json.dumps(records))
        rc = cli.main(["train", str(path), "--out", str(workdir["root"] / "x.ckpt")])
        assert rc == cli.EXIT_IO
        assert f"field '{field}' is not an array" in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["corpus", "dataset", "config"])
    def test_invalid_utf8_is_io_error(self, workdir, reader, capsys):
        root = workdir["root"]
        source = {"corpus": workdir["corpus"], "dataset": workdir["data"], "config": workdir["config"]}
        raw = source[reader].read_bytes()
        at = raw.index(b'"') + 1  # inside the first string
        bad = root / f"latin1_{reader}"
        bad.write_bytes(raw[:at] + b"caf\xe9 " + raw[at:])
        argv = {
            "corpus": ["index", str(bad), "--out", str(root / "u.idx")],
            "dataset": ["train", str(bad), "--out", str(root / "u.ckpt")],
            "config": ["index", str(workdir["corpus"]), "--out", str(root / "u.idx"), "--config", str(bad)],
        }[reader]
        assert cli.main(argv) == cli.EXIT_IO
        assert f"{bad}: not valid UTF-8" in capsys.readouterr().err

    def test_non_finite_checkpoint_payload_is_io_error(self, workdir, capsys):
        raw = bytearray(workdir["ckpt"].read_bytes())
        payload_start = 12 + int.from_bytes(raw[8:12], "little")
        raw[payload_start : payload_start + 8] = struct.pack("<d", float("nan"))
        bad = workdir["root"] / "nan.ckpt"
        bad.write_bytes(bytes(raw))
        rc = cli.main(["eval", str(workdir["data"]), "--checkpoint", str(bad)])
        assert rc == cli.EXIT_IO
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["index", "checkpoint"])
    def test_non_finite_value_in_any_array_is_io_error(self, workdir, kind, capsys):
        root = workdir["root"]
        path = workdir["ckpt"] if kind == "checkpoint" else root / "finite.idx"
        if kind == "index":
            assert cli.main(["index", str(workdir["corpus"]), "--out", str(path)]) == cli.EXIT_OK
        header, arrays = read_container(path, kind)
        header = {k: v for k, v in header.items() if k not in ("kind", "arrays")}
        assert len(arrays) == (2 if kind == "index" else 15)
        for name, value in ((n, v) for n in sorted(arrays) for v in (np.nan, np.inf)):
            bad_arrays = {**arrays, name: arrays[name].copy()}
            bad_arrays[name].flat[-1] = value
            bad = root / f"bad_{name}.{kind}"
            write_container(bad, kind, header, bad_arrays)
            argv = {
                "index": ["query", str(bad), workdir["question"]],
                "checkpoint": ["eval", str(workdir["data"]), "--checkpoint", str(bad)],
            }[kind]
            assert cli.main(argv) == cli.EXIT_IO, name
            assert f"non-finite values in array {name!r}" in capsys.readouterr().err


class TestInvalidSettings:
    """A resolved setting that TrainConfig.validate() rejects exits 2 before any work."""

    @staticmethod
    def _argv(workdir, command):
        root = workdir["root"]
        ckpt = ["--checkpoint", str(workdir["ckpt"])]
        return {
            "index": ["index", str(workdir["corpus"]), "--out", str(root / "invalid.idx")],
            "query": ["query", str(root / "invalid-query.idx"), workdir["question"]],
            "train": ["train", str(workdir["data"]), "--out", str(root / "invalid.ckpt")],
            "generate": ["generate", *ckpt, "--corpus", str(workdir["corpus"]),
                         "--question", workdir["question"]],
            "eval": ["eval", str(workdir["data"]), *ckpt],
            "sweep": ["sweep", str(workdir["data"]), *ckpt, "--param", "beta", "--grid", "0,1,2",
                      "--out", str(root / "invalid-sweep")],
        }[command]

    @pytest.mark.parametrize("flag", ["--top-k", "--max-len"])
    @pytest.mark.parametrize("command", ["index", "query", "train", "generate", "eval", "sweep"])
    def test_non_positive_setting_is_io_error(self, workdir, command, flag, capsys):
        if command == "query":
            rc = cli.main(["index", str(workdir["corpus"]), "--out", str(workdir["root"] / "invalid-query.idx")])
            assert rc == cli.EXIT_OK
        rc = cli.main(self._argv(workdir, command) + [flag, "0"])
        assert rc == cli.EXIT_IO
        assert "invalid settings" in capsys.readouterr().err


    # (config section, key, value, subcommands): every value TrainConfig.validate()
    # rejects exits 2, whichever subcommand resolves it.
    BAD_CONFIG_VALUES = [
        ("encoder", "hash_buckets", 0, ("train", "index")),
        ("training", "seed", -1, ("train", "index")),
        ("training", "seed", 1.5, ("train", "index")),
        ("retrieval", "tau", "x", ("train", "eval", "query")),
        ("training", "epochs", 1.5, ("train", "eval")),
        ("training", "batch_size", 2.5, ("train", "eval")),
        ("retrieval", "top_k", 1.5, ("train", "eval")),
        ("training", "max_len", 2.5, ("train", "eval")),
        ("training", "beta", float("nan"), ("train",)),
        ("training", "beta", float("inf"), ("train",)),
        ("training", "learning_rate", float("nan"), ("train",)),
        ("encoder", "dim", 0, ("train",)),
        ("encoder", "hidden", True, ("train",)),
        ("training", "freeze_encoder", 1, ("train",)),
    ]

    @pytest.mark.parametrize(
        "section, key, value, command",
        [(sec, key, val, cmd) for sec, key, val, cmds in BAD_CONFIG_VALUES for cmd in cmds],
        ids=[f"{cmd}-{key}={val}" for _, key, val, cmds in BAD_CONFIG_VALUES for cmd in cmds],
    )
    def test_invalid_config_value_is_io_error(self, workdir, section, key, value, command, capsys):
        if command == "query":
            rc = cli.main(["index", str(workdir["corpus"]), "--out", str(workdir["root"] / "invalid-query.idx")])
            assert rc == cli.EXIT_OK
        config = workdir["root"] / "invalid-config.json"
        config.write_text(json.dumps({section: {key: value}}))
        rc = cli.main(self._argv(workdir, command) + ["--config", str(config)])
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "invalid settings" in err and key in err

    @pytest.mark.parametrize(
        "doc, message",
        [([], "expected a JSON object"), ({"retrieval": 5}, "'retrieval' is not a JSON object")],
        ids=["top-level-list", "section-int"],
    )
    @pytest.mark.parametrize("command", ["index", "query", "train", "generate", "eval", "sweep"])
    def test_config_that_is_not_an_object_is_io_error(self, workdir, command, doc, message, capsys):
        if command == "query":
            rc = cli.main(["index", str(workdir["corpus"]), "--out", str(workdir["root"] / "invalid-query.idx")])
            assert rc == cli.EXIT_OK
        config = workdir["root"] / "non-object-config.json"
        config.write_text(json.dumps(doc))
        rc = cli.main(self._argv(workdir, command) + ["--config", str(config)])
        assert rc == cli.EXIT_IO
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["index", "train", "eval", "sweep"])
    def test_unknown_section_is_io_error(self, workdir, command, capsys):
        # A misspelt section would otherwise be ignored and its settings left at their defaults.
        root = workdir["root"]
        out = root / f"unknown-section-{command}.out"
        config = root / "unknown-section-config.json"
        config.write_text(json.dumps({"training": {"epochs": 1}, "retreival": {"top_k": 2}}))
        rc = cli.main(self._argv(workdir, command) + ["--out", str(out), "--config", str(config)])
        assert rc == cli.EXIT_IO
        assert "'retreival'" in capsys.readouterr().err
        assert not out.exists()
        assert not Path(str(out) + ".config.json").exists()


class TestCorruptHeader:
    """A corrupted byte or field anywhere before a container's payload exits 0, 2 or 3, never a traceback."""

    @staticmethod
    @pytest.fixture(scope="class")
    def files(workdir):
        index = workdir["root"] / "fuzz.idx"
        rc = cli.main(["index", str(workdir["corpus"]), "--out", str(index), "--config", str(workdir["config"])])
        assert rc == cli.EXIT_OK
        return {"index": index, "checkpoint": workdir["ckpt"]}

    @pytest.mark.parametrize("kind", ["index", "checkpoint"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_single_byte_corruption_exits_cleanly(self, workdir, files, kind, data):
        raw = files[kind].read_bytes()
        header_end = 12 + int.from_bytes(raw[8:12], "little")
        pos = data.draw(st.integers(0, header_end - 1), label="position")
        value = data.draw(st.integers(0, 255).filter(lambda v: v != raw[pos]), label="byte")
        corrupt = bytearray(raw)
        corrupt[pos] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / kind
            path.write_bytes(bytes(corrupt))
            if kind == "index":
                argv = ["query", str(path), workdir["question"]]
            else:
                argv = ["eval", str(workdir["data"]), "--checkpoint", str(path)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        assert rc in (cli.EXIT_OK, cli.EXIT_IO, cli.EXIT_EMPTY_FILTER)

    @pytest.mark.parametrize("kind", ["index", "checkpoint"])
    def test_non_string_vocab_tokens_are_io_error(self, workdir, files, kind, capsys):
        raw = files[kind].read_bytes()
        header_end = 12 + int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12:header_end])
        header["vocab"]["tokens"] = list(range(len(header["vocab"]["tokens"])))  # unique ints
        blob = json.dumps(header).encode()
        path = workdir["root"] / f"int_tokens.{kind}"
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[header_end:])
        if kind == "index":
            argv = ["query", str(path), workdir["question"]]
        else:
            argv = ["eval", str(workdir["data"]), "--checkpoint", str(path)]
        assert cli.main(argv) == cli.EXIT_IO
        assert "tokens must be strings" in capsys.readouterr().err

    NON_OBJECTS = [[], 5, "x", None, True]

    @staticmethod
    def field_paths(value, path=()):
        """The path of every field of a JSON header, nested ones too; of a list, its first item's."""
        if isinstance(value, dict):
            items = list(value.items())
        else:
            items = list(enumerate(value[:1])) if isinstance(value, list) else []
        for key, child in items:
            yield path + (key,)
            yield from TestCorruptHeader.field_paths(child, path + (key,))

    @pytest.mark.parametrize("value", NON_OBJECTS, ids=lambda v: json.dumps(v))
    @pytest.mark.parametrize("command", ["query", "eval", "generate", "sweep"])
    def test_non_object_field_exits_cleanly(self, workdir, files, command, value):
        kind = "index" if command == "query" else "checkpoint"
        raw = files[kind].read_bytes()
        header_end = 12 + int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12:header_end])
        escaped = []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / kind
            argv = {
                "query": ["query", str(path), workdir["question"]],
                "eval": ["eval", str(workdir["data"]), "--checkpoint", str(path)],
                "generate": ["generate", "--checkpoint", str(path), "--corpus",
                             str(workdir["corpus"]), "--question", workdir["question"]],
                "sweep": ["sweep", str(workdir["data"]), "--checkpoint", str(path), "--param",
                          "beta", "--grid", "0,1,2", "--out", str(Path(tmp) / "sweep")],
            }[command]
            for field in self.field_paths(header):
                edited = json.loads(raw[12:header_end])
                node = edited
                for key in field[:-1]:
                    node = node[key]
                node[field[-1]] = value
                blob = json.dumps(edited).encode()
                path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[header_end:])
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        rc = cli.main(argv)
                    except Exception as err:  # noqa: BLE001 - any escape is the failure reported
                        rc = repr(err)
                if rc not in (cli.EXIT_OK, cli.EXIT_IO, cli.EXIT_EMPTY_FILTER):
                    escaped.append((field, rc))
        assert not escaped
