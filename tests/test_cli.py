"""CLI subcommands, config validation, report idempotence."""

import json

import numpy as np
import pytest

from confadapt.checkpoint import Checkpoint
from confadapt.cli import main
from confadapt.pipeline import StageConfig, run_recipe
from confadapt.report import arch_table, render_report, sweep as run_sweep
from confadapt.data import Corpus, default_domain_pair
from confadapt.space import ArchSpace, DerivedArch


def base_config(tmp_path):
    src, tgt = default_domain_pair(feat_dim=6, vocab_tokens=6)
    return {
        "schema_version": 1,
        "seed": 5,
        "out_dir": str(tmp_path / "run"),
        "data": {
            "dir": str(tmp_path / "data"),
            "source": {"spec": src.to_json(), "counts": {"train": 32, "heldout": 8, "dev": 8, "test": 8}},
            "target": {"spec": tgt.to_json(), "counts": {"train": 16, "heldout": 6, "dev": 6, "test": 8}},
        },
        "space": {
            "model_dim": 16, "feat_dim": 6, "vocab_size": 9,
            "encoder_blocks": 1, "decoder_blocks": 1,
            "ff_choices": [8, 16], "head_choices": [1, 2],
            "head_dim_choices": [4, 8], "kernel_choices": [3, 5],
        },
        "stages": [
            {"name": "pretrain", "kind": "pretrain", "corpus": "source", "epochs": 1,
             "batch_size": 8, "output": "sn_src"},
            {"name": "adapt", "kind": "adapt", "corpus": "target", "input": "sn_src",
             "epochs": 1, "batch_size": 8, "output": "sn_tgt"},
            {"name": "derive_param", "kind": "derive", "corpus": "source", "input": "sn_src",
             "epochs": 1, "batch_size": 8, "output": "m_param"},
            {"name": "derive_hyper", "kind": "derive", "corpus": "source", "input": "sn_tgt",
             "epochs": 1, "batch_size": 8, "output": "m_hyper"},
            {"name": "ft_param", "kind": "finetune", "corpus": "target", "input": "m_param",
             "epochs": 1, "batch_size": 8, "output": "m_param_tgt"},
            {"name": "ft_hyper", "kind": "finetune", "corpus": "target", "input": "m_hyper",
             "epochs": 1, "batch_size": 8, "output": "m_hyper_tgt"},
        ],
        "systems": [
            {"name": "param_only", "checkpoint": "m_param_tgt", "corpus": "target", "split": "test"},
            {"name": "hyper_adapt", "checkpoint": "m_hyper_tgt", "corpus": "target", "split": "test"},
        ],
        "sweep": {"eta": [0.0, 9e-6]},
    }


def write_config(tmp_path, cfg):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg, indent=2))
    return str(p)


# stands for a data directory whose target corpus has no dev split
NO_DEV = "<no target dev split>"


@pytest.fixture(scope="module")
def no_dev_data(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("no_dev")
    cfg = base_config(tmp_path)
    del cfg["data"]["target"]["counts"]["dev"]
    assert main(["gen-data", "-c", write_config(tmp_path, cfg)]) == 0
    return cfg["data"]["dir"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg = base_config(tmp_path)
    cfg_path = write_config(tmp_path, cfg)
    assert main(["gen-data", "-c", cfg_path]) == 0
    assert main(["run", "-c", cfg_path]) == 0
    return tmp_path, cfg, cfg_path


class TestGenData:
    def test_corpus_directories_written(self, workspace):
        tmp_path, cfg, _ = workspace
        for dom in ("source", "target"):
            d = tmp_path / "data" / dom
            assert (d / "manifest.jsonl").exists()
            assert (d / "meta.json").exists()
            corpus = Corpus.load(d)
            assert len(corpus.split("train")) == cfg["data"][dom]["counts"]["train"]

    def test_failed_generation_writes_no_corpus(self, tmp_path, capsys):
        # the target spec cannot fit its tokens into 2 frames
        cfg = base_config(tmp_path)
        cfg["data"]["target"]["spec"]["mean_frames"] = 2.0
        assert main(["gen-data", "-c", write_config(tmp_path, cfg)]) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "RuntimeError"
        assert not (tmp_path / "data").exists()


class TestRun:
    def test_report_contains_both_arms(self, workspace):
        tmp_path, _, _ = workspace
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        names = [s["name"] for s in report["systems"]]
        assert names == ["param_only", "hyper_adapt"]
        for s in report["systems"]:
            assert s["ter"]["n_shorter"] + s["ter"]["n_longer"] == s["ter"]["n_total"]
            assert s["params"] > 0
        assert (tmp_path / "run" / "report.txt").exists()

    def test_stage_checkpoints_on_disk(self, workspace):
        tmp_path, cfg, _ = workspace
        for st in cfg["stages"]:
            assert (tmp_path / "run" / f"{st['output']}.ckpt").exists()


class TestEvaluate:
    def test_idempotent_regeneration(self, workspace):
        tmp_path, _, cfg_path = workspace
        ckpt = str(tmp_path / "run" / "m_param_tgt.ckpt")
        assert main(["evaluate", "-c", cfg_path, "--checkpoint", ckpt, "--name", "sys"]) == 0
        first = (tmp_path / "run" / "eval_sys.json").read_bytes()
        assert main(["evaluate", "-c", cfg_path, "--checkpoint", ckpt, "--name", "sys"]) == 0
        assert (tmp_path / "run" / "eval_sys.json").read_bytes() == first

    def test_missing_split_exit_2_before_loading(self, workspace, capsys):
        tmp_path, _, cfg_path = workspace
        code = main(["evaluate", "-c", cfg_path, "--checkpoint", "no/such.ckpt",
                     "--split", "eval", "--name", "nosplit"])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["field"] == "--split"
        assert not (tmp_path / "run" / "eval_nosplit.json").exists()

    def test_supernet_checkpoint_exit_1(self, workspace, capsys):
        tmp_path, _, cfg_path = workspace
        code = main(["evaluate", "-c", cfg_path, "--checkpoint",
                     str(tmp_path / "run" / "sn_tgt.ckpt"), "--name", "sn"])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["exit_code"] == 1
        assert not (tmp_path / "run" / "eval_sn.json").exists()

    def test_missing_checkpoint_exit_3(self, workspace, capsys):
        _, _, cfg_path = workspace
        code = main(["evaluate", "-c", cfg_path, "--checkpoint", "no/such.ckpt"])
        assert code == 3
        rec = json.loads(capsys.readouterr().err.strip())
        assert "no/such.ckpt" in rec["message"]


class TestDumpArch:
    def test_model_checkpoint_table(self, workspace, capsys):
        tmp_path, _, _ = workspace
        assert main(["dump-arch", "--checkpoint", str(tmp_path / "run" / "m_param_tgt.ckpt")]) == 0
        out = capsys.readouterr().out
        assert "enc          0" in out.replace("enc      0", "enc          0") or "enc" in out
        assert '"arch"' in out

    def test_supernet_checkpoint_extracts(self, workspace, capsys):
        tmp_path, _, _ = workspace
        assert main(["dump-arch", "--checkpoint", str(tmp_path / "run" / "sn_tgt.ckpt")]) == 0
        out = capsys.readouterr().out
        arch = json.loads(out.strip().splitlines()[-1])["arch"]
        assert "enc.0.ck" in arch

    def test_rows_are_layer_indexed_from_bottom(self, workspace, capsys):
        tmp_path, _, _ = workspace
        main(["dump-arch", "--checkpoint", str(tmp_path / "run" / "m_param_tgt.ckpt")])
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("enc ")]
        assert [int(l.split()[1]) for l in lines] == [0]

    def test_split_space_table(self):
        # split decoder attention: one column per self/cross group, each
        # row holding that block's choices
        space = ArchSpace(model_dim=16, feat_dim=6, vocab_size=9, encoder_blocks=2,
                          decoder_blocks=2, ff_choices=(8, 16), head_choices=(1, 2),
                          head_dim_choices=(4, 8), kernel_choices=(3, 5),
                          split_decoder_attention=True)
        arch = DerivedArch.sample_uniform(space, np.random.default_rng(3))
        lines = arch_table(arch, space).splitlines()
        assert lines[0].split() == ["section", "block", "FD", "AH", "ADIM", "CK"]
        assert lines[3].split() == ["section", "block", "FD", "AH_SELF", "ADIM_SELF",
                                    "AH_CROSS", "ADIM_CROSS"]
        for line, section, b in ((lines[1], "enc", 0), (lines[2], "enc", 1),
                                 (lines[4], "dec", 0), (lines[5], "dec", 1)):
            groups = ("fd", "ah", "adim", "ck") if section == "enc" else (
                "fd", "ah_self", "adim_self", "ah_cross", "adim_cross")
            assert line.split() == [section, str(b)] + [str(arch[(section, b, g)])
                                                       for g in groups]
        assert len(lines) == 6
        # the sampled arch tells self from cross attention in some block
        assert any(arch[("dec", b, "ah_self")] != arch[("dec", b, "ah_cross")]
                   or arch[("dec", b, "adim_self")] != arch[("dec", b, "adim_cross")]
                   for b in range(2))


class TestConfigValidation:
    def test_shipped_demo_config_validates(self):
        from pathlib import Path
        from confadapt.cli import load_config
        demo = Path(__file__).resolve().parent.parent / "configs" / "demo.json"
        cfg = load_config(demo)
        assert cfg.space is not None
        assert [s.kind for s in cfg.stages][:2] == ["pretrain", "adapt"]
        assert cfg.sweep.eta == [0.0, 9e-06, 9e-05]

    def test_schema_reads_every_default(self):
        # every field of every config dataclass has an annotation the reader
        # handles, and its default, written as JSON, reads back to itself
        from dataclasses import MISSING, fields, is_dataclass
        from types import UnionType
        from typing import get_args, get_origin, get_type_hints
        from confadapt import cli

        def handled(hint):
            origin, args = get_origin(hint), get_args(hint)
            if origin is tuple:
                return len(args) == 2 and args[1] is Ellipsis and handled(args[0])
            if origin is dict:
                return args[0] is str and handled(args[1])
            if origin in (UnionType, list):
                return all(handled(a) for a in args)
            return hint in cli._SCALARS or is_dataclass(hint)

        def parts(hint):
            yield hint
            for a in get_args(hint):
                yield from parts(a)

        seen, todo = set(), [cli.RunConfig]
        while todo:
            cls = todo.pop()
            seen.add(cls)
            hints = get_type_hints(cls)
            for f in fields(cls):
                hint = hints[f.name]
                assert handled(hint), (cls.__name__, f.name, hint)
                todo += [h for h in parts(hint) if is_dataclass(h) and h not in seen]
                if f.default is not MISSING:
                    as_json = json.loads(json.dumps(f.default))
                    assert cli._read(as_json, hint, f.name) == f.default, (cls.__name__, f.name)
        assert {c.__name__ for c in seen} >= {"RunConfig", "ArchSpace", "DomainSpec",
                                              "StageConfig", "SystemConfig", "SweepConfig"}

    def test_unknown_key_exit_2_with_field(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["unexpected"] = 1
        code = main(["run", "-c", write_config(tmp_path, cfg)])
        assert code == 2
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["field"] == "config.unexpected"

    def test_nested_unknown_key_named(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["data"]["source"]["spec"]["bogus"] = 3
        code = main(["gen-data", "-c", write_config(tmp_path, cfg)])
        assert code == 2
        rec = json.loads(capsys.readouterr().err.strip())
        assert "spec" in rec["field"]

    def test_wrong_schema_version(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["schema_version"] = 99
        assert main(["run", "-c", write_config(tmp_path, cfg)]) == 2
        assert "schema_version" in json.loads(capsys.readouterr().err.strip())["field"]

    def test_bad_stage_kind(self, tmp_path, capsys):
        # bad stage settings, and settings a stage's kind never reads, are
        # rejected when the config loads, before any stage runs; stages 0-1
        # search, 2-3 derive and 4-5 finetune
        for i, bad in ((0, {"kind": "banana"}), (2, {"init": "inherrit"}), (0, {"eta": -0.1}),
                       (0, {"t_end": 0.0}), (1, {"t_start": 0.05, "t_end": 0.1}),
                       (0, {"epochs": 1.5}), (0, {"batch_size": 8.0}), (2, {"patience": 1.5}),
                       (4, {"patience": -1}), (0, {"lr_weights": float("nan")}),
                       (0, {"lr_weights": -1e-3}), (0, {"lr_logits": float("inf")}),
                       (1, {"lr_logits": 0.0}),
                       (0, {"patience": 1}), (4, {"init": "fresh"}), (2, {"lr_logits": 1e-3}),
                       (3, {"eta": 0.0}), (2, {"reinit_output": True}), (0, {"input": "sn_src"}),
                       (0, {"seed": True}), (5, {"seed": 2.0}),
                       # a setting of the wrong JSON type
                       (3, {"input": 5}), (1, {"input": ["sn_src"]}), (0, {"name": ["p"]}),
                       (0, {"output": ["sn_src"]}), (2, {"corpus": ["source"]}),
                       (0, {"kind": ["pretrain"]}),
                       (4, {"reinit_output": "no"}), (5, {"reinit_output": 1}),
                       (0, {"eta": True}), (1, {"lr_weights": True}), (0, {"lr_logits": True}),
                       (0, {"t_start": True}), (1, {"t_end": "0.1"}), (0, {"eta": "0"}),
                       (0, {"t_start": float("inf")})):
            cfg = base_config(tmp_path)
            cfg["stages"][i].update(bad)
            assert main(["run", "-c", write_config(tmp_path, cfg)]) == 2, bad
            field = json.loads(capsys.readouterr().err.strip())["field"]
            assert field in {f"config.stages.{i}.{key}" for key in bad}, (bad, field)

    def test_set_overrides_scalar(self, tmp_path):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        from confadapt.cli import load_config
        loaded = load_config(path, overrides=["seed=42", "stages.0.epochs=0"])
        assert loaded.seed == 42
        assert loaded.stages[0].epochs == 0

    def test_set_reaches_a_field_the_file_leaves_at_its_default(self):
        from pathlib import Path
        from confadapt.cli import ConfigError, load_config
        demo = Path(__file__).resolve().parent.parent / "configs" / "demo.json"
        cfg = load_config(demo, ["space.split_decoder_attention=true", "sweep.eval_split=dev"])
        assert cfg.space.split_decoder_attention and cfg.sweep.eval_split == "dev"
        # the reader refuses what it would refuse in the file; a path the
        # file's values cannot hold names no field
        for bad, field, message in (
                ("space.no_such_field=1", "config.space.no_such_field", "config.space reads only"),
                ("sweep.eval_split.x=1", "config.sweep.eval_split", "expected str"),
                ("stages.0.epochs.0=1", "stages.0.epochs.0", "--set names no such field"),
                ("seed.x=1", "seed.x", "--set names no such field"),
                ("stages.-1.epochs=7", "stages.-1.epochs", "--set names no such field"),
                ("stages.+0.epochs=7", "stages.+0.epochs", "--set names no such field"),
                ("stages.0_0.epochs=7", "stages.0_0.epochs", "--set names no such field")):
            with pytest.raises(ConfigError, match=message) as err:
                load_config(demo, [bad])
            assert err.value.field == field

    def test_set_rejects_non_scalar(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path))
        assert main(["run", "-c", path, "--set", "data=1"]) == 2
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["field"] == "config.data" and "expected an object, got 1" in rec["message"]
        assert main(["run", "-c", path, "--set", "space={}"]) == 2
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["field"] == "space" and rec["message"].endswith("--set takes a scalar value")

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "-c", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_command_without_data_exits_2(self, tmp_path, capsys, command):
        cfg = base_config(tmp_path)
        del cfg["data"]
        assert main([command, "-c", write_config(tmp_path, cfg)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["field"] == "config.data"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["directory", "undecodable bytes", "invalid JSON"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{}" if kind == "undecodable bytes" else b"{seed: 1}")
        assert main(["run", "-c", str(path)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["field"] == "config"

    @pytest.mark.parametrize("command, edit, overrides, field", [
        ("run", {}, ["stages.9.epochs=3"], "stages.9.epochs"),
        ("run", {}, ["stages.x.epochs=3"], "stages.x.epochs"),
        ("run", {"systems": [{"name": "s", "checkpoint": "m_param", "corpus": "tgt"}]}, [],
         "config.systems.0.corpus"),
        ("run", {"systems": [{"name": "s", "checkpoint": "m_param", "split": "eval"}]}, [],
         "config.systems.0.split"),
        ("sweep", {"sweep": {"eta": [0.0, -1.0]}}, [], "config.sweep.eta"),
        ("sweep", {"sweep": {"eta": [0.0], "eval_corpus": "tgt"}}, [],
         "config.sweep.eval_corpus"),
        ("sweep", {"sweep": {"eta": [0.0], "eval_split": "eval"}}, [],
         "config.sweep.eval_split"),
        ("sweep", {"sweep": {"eta": 0.5}}, [], "config.sweep.eta"),
        ("run", {}, ["data.source.counts.train=many"], "config.data.source.counts.train"),
        ("run", {"data.source.counts": 5}, [], "config.data.source.counts"),
        ("run", {"stages": 5}, [], "config.stages"),
        ("run", {}, ["seed=abc"], "config.seed"),
        ("run", {"data.target.spec.channel_shift": [0.1, 0.2]}, [], "config.data.target.spec"),
        ("run", {}, ["space.feat_dim=5"], "config.space.feat_dim"),
        ("run", {}, ["space.vocab_size=8"], "config.space.vocab_size"),
        ("sweep", {}, ["space.feat_dim=5"], "config.space.feat_dim"),
        # a stage setting refused by StageConfig, and a recipe refused by
        # check_recipe, name the stage's field; sweep refuses before it pre-trains
        ("run", {}, ["stages.2.corpus=tgt"], "config.stages.2.corpus"),
        ("sweep", {}, ["stages.2.corpus=tgt"], "config.stages.2.corpus"),
        ("run", {}, ["stages.3.input=nope"], "config.stages.3.input"),
        ("sweep", {}, ["stages.4.input=nope"], "config.stages.4.input"),
        ("run", {}, ["stages.4.input=sn_src"], "config.stages.4.input"),
        ("run", {}, ["stages.3.input=."], "config.stages.3.input"),
        ("run", {"stages.3.seed": "abc"}, [], "config.stages.3.seed"),
        ("run", {"stages.0.seed": -1}, [], "config.stages.0.seed"),
        ("run", {"data.dir": NO_DEV, "stages.4.patience": 1}, [], "config.stages.4.patience"),
        ("run", {"seed": 2.9}, [], "config.seed"),
        ("run", {"seed": True}, [], "config.seed"),
        ("run", {"seed": "7"}, [], "config.seed"),
        ("run", {"seed": -1}, [], "config.seed"),
        ("run", {"data.source.counts.train": 1.5}, [], "config.data.source.counts.train"),
        ("run", {"data.target.counts.dev": True}, [], "config.data.target.counts.dev"),
        ("run", {"data.target.counts.test": 0}, [], "config.data.target.counts.test"),
        ("sweep", {"sweep": {"eta": ["0.5"]}}, [], "config.sweep.eta"),
        ("sweep", {"sweep": {"eta": [0.0, True]}}, [], "config.sweep.eta"),
        # every field's annotation is its JSON type, in every part of the config
        ("run", {"space.split_decoder_attention": "no"}, [],
         "config.space.split_decoder_attention"),
        ("run", {"space.encoder_blocks": True}, [], "config.space.encoder_blocks"),
        ("run", {"space.model_dim": 16.0}, [], "config.space.model_dim"),
        ("run", {"space.ff_choices": "816"}, [], "config.space.ff_choices"),
        ("run", {"space.ff_choices": [8.5, 16]}, [], "config.space.ff_choices"),
        ("run", {"systems.0.checkpoint": 5}, [], "config.systems.0.checkpoint"),
        ("run", {"systems.0.split": 5}, [], "config.systems.0.split"),
        ("run", {"systems.0.name": 5}, [], "config.systems.0.name"),
        ("run", {"out_dir": 5}, [], "config.out_dir"),
        ("run", {"data.dir": 5}, [], "config.data.dir"),
        ("run", {"data.source.spec.feat_dim": 6.0}, [], "config.data.source.spec.feat_dim"),
        ("run", {"data.source.spec.tokens_min": True}, [],
         "config.data.source.spec.tokens_min"),
        ("run", {"data.source.spec.domain": 5}, [], "config.data.source.spec.domain"),
        ("run", {"data.source.spec.mean_frames": "120"}, [],
         "config.data.source.spec.mean_frames"),
        ("run", {"data.source.spec.seed": 1.5}, [], "config.data.source.spec.seed"),
        ("run", {"data.source.spec.noise_std": True}, [], "config.data.source.spec.noise_std"),
        ("sweep", {"sweep.eval_split": 5}, [], "config.sweep.eval_split"),
        # a spec value the generator cannot use
        ("run", {"data.source.spec.tempo": float("nan")}, [], "config.data.source.spec"),
        ("run", {"data.source.spec.mean_frames": float("inf")}, [], "config.data.source.spec"),
        ("run", {"data.source.spec.noise_std": -1.0}, [], "config.data.source.spec"),
        ("run", {"data.source.spec.seg_jitter": 1.5}, [], "config.data.source.spec"),
        ("run", {"data.source.spec.seg_jitter": -0.5}, [], "config.data.source.spec"),
        ("run", {"data.target.spec.channel_shift": float("inf")}, [], "config.data.target.spec"),
        # a --set value is read as if the file held it: ArchSpace refuses a
        # space no model can have (odd model_dim), the reader a key it lacks
        ("run", {}, ["space.model_dim=33"], "config.space"),
        ("run", {}, ["space.no_such_field=1"], "config.space.no_such_field"),
        ("run", {}, ["seed"], "seed"),
        ("run", {"systems": [{"name": "s"}]}, [], "config.systems.0.checkpoint"),
        # a section or corpus the command needs
        ("run", {}, ["data.dir=no/such/data"], "config.data.source"),
        ("gen-data", {"data.target": None}, [], "config.data"),
        ("run", {"space": None}, [], "config.stages"),
        ("sweep", {"sweep": None}, [], "config.sweep"),
    ])
    def test_invalid_config_exits_2_before_any_stage(self, workspace, no_dev_data, tmp_path,
                                                     capsys, command, edit, overrides, field):
        data_dir = workspace[1]["data"]["dir"]
        cfg = base_config(tmp_path)
        cfg["data"]["dir"] = data_dir
        for path, value in edit.items():  # dotted path -> new value
            *parents, leaf = path.split(".")
            node = cfg
            for p in parents:
                node = node[int(p)] if isinstance(node, list) else node[p]
            node[int(leaf) if isinstance(node, list) else leaf] = value
        if cfg["data"]["dir"] == NO_DEV:
            cfg["data"]["dir"] = no_dev_data
        args = [command, "-c", write_config(tmp_path, cfg)]
        for o in overrides:
            args += ["--set", o]
        assert main(args) == 2
        assert json.loads(capsys.readouterr().err.strip())["field"] == field
        out_dir = tmp_path / "run"
        assert not out_dir.exists() or not any(out_dir.iterdir())


class _EchoModel:
    """Stub decoder that reads the token id straight out of the features,
    giving an exact-decode model for stratified_eval plumbing tests."""

    def forward_encoder(self, features, lens):
        from confadapt.tensor import Tensor
        return Tensor(features), lens

    def forward_decoder(self, enc, enc_lens, tokens_in):
        import numpy as np
        from confadapt.tensor import Tensor
        from confadapt.losses import EOS_ID
        b, l = np.asarray(tokens_in).shape
        vocab = 9
        logits = np.full((b, l, vocab), -10.0)
        for i in range(b):
            tok = int(round(enc.data[i, 0, 0]))
            for j in range(l):
                logits[i, j, tok if j == 0 else EOS_ID] = 10.0
        return Tensor(logits)


class TestStratifiedEval:
    def _corpus(self):
        import numpy as np
        from confadapt.data import Corpus, Utterance
        utts = []
        for i, dur in enumerate((6, 8, 10, 12, 14)):
            tok = 3 + (i % 3)
            feats = np.full((dur, 2), float(tok))
            utts.append(Utterance(f"u{i}", "target", "test", feats, np.array([tok])))
        return Corpus("target", 9, 2, {"test": utts})

    def test_perfect_model_all_zero(self):
        from confadapt.report import stratified_eval
        rec = stratified_eval(_EchoModel(), self._corpus(), "test")
        assert rec["overall"] == 0.0
        assert rec["shorter"] == 0.0 and rec["longer"] == 0.0

    def test_missing_split_rejected(self):
        from confadapt.report import stratified_eval
        with pytest.raises(ValueError, match="no 'dev' split"):
            stratified_eval(_EchoModel(), self._corpus(), "dev")

    def test_halves_partition_test_set(self):
        from confadapt.report import stratified_eval
        rec = stratified_eval(_EchoModel(), self._corpus(), "test")
        assert rec["n_shorter"] + rec["n_longer"] == rec["n_total"] == 5

    def test_each_utterance_decoded_once(self):
        from confadapt.report import stratified_eval

        class Counting(_EchoModel):
            encoded = 0

            def forward_encoder(self, features, lens):
                self.encoded += 1
                return super().forward_encoder(features, lens)

        model = Counting()
        rec = stratified_eval(model, self._corpus(), "test")
        assert model.encoded == rec["n_total"] == 5


class TestSweep:
    def test_failed_arm_does_not_abort_others(self, workspace, tmp_path):
        tmp_path_ws, cfg, _ = workspace
        corpora = {d: Corpus.load(tmp_path_ws / "data" / d) for d in ("source", "target")}
        stages = [
            StageConfig(name="pre", kind="pretrain", corpus="source", epochs=0,
                        batch_size=8, output="sn"),
            StageConfig(name="ad", kind="adapt", corpus="target", input="sn",
                        epochs=1, batch_size=8, output="sn_t"),
            StageConfig(name="de", kind="derive", corpus="source", input="sn_t",
                        epochs=0, batch_size=8, output="m"),
        ]
        import numpy as np
        from confadapt.space import ArchSpace
        space = ArchSpace.from_json(cfg["space"])
        # an infinite penalty factor blows up that arm's adaptation loss
        with np.errstate(all="ignore"):
            report = run_sweep([0.0, float("inf")], stages, corpora, tmp_path / "iso",
                               space, seed=3)
        assert "error" not in report["systems"][0]
        assert "error" in report["systems"][1]
        assert "diverged" in report["systems"][1]["error"]
        failed = render_report(report).splitlines()[2]
        assert failed.startswith("eta=inf ") and "FAILED: stage 'ad' diverged" in failed

    def test_negative_eta_refused_before_any_stage(self, workspace, tmp_path):
        tmp_path_ws, cfg, _ = workspace
        corpora = {d: Corpus.load(tmp_path_ws / "data" / d) for d in ("source", "target")}
        stages = [StageConfig(name="pre", kind="pretrain", corpus="source", epochs=1,
                              batch_size=8, output="sn")]
        from confadapt.space import ArchSpace
        with pytest.raises(ValueError, match="nonnegative"):
            run_sweep([0.0, -1.0], stages, corpora, tmp_path / "neg",
                      ArchSpace.from_json(cfg["space"]))
        assert not (tmp_path / "neg").exists()

    def test_single_eta_matches_plain_run(self, workspace, tmp_path):
        tmp_path_ws, cfg, _ = workspace
        corpora = {d: Corpus.load(tmp_path_ws / "data" / d) for d in ("source", "target")}
        stages = [
            StageConfig(name="pre", kind="pretrain", corpus="source", epochs=1,
                        batch_size=8, output="sn"),
            StageConfig(name="ad", kind="adapt", corpus="target", input="sn",
                        epochs=1, batch_size=8, output="sn_t"),
            StageConfig(name="de", kind="derive", corpus="source", input="sn_t",
                        epochs=0, batch_size=8, output="m"),
        ]
        from confadapt.space import ArchSpace
        space = ArchSpace.from_json(cfg["space"])
        plain = run_recipe(stages, corpora, tmp_path / "plain", space, seed=77)
        swept = run_sweep([0.0], stages, corpora, tmp_path / "swept", space, seed=77)
        a = Checkpoint.load(plain["checkpoints"]["m"])
        b = Checkpoint.load(swept["arms"][0]["report"]["checkpoints"]["m"])
        # identical weights and arch; lineage differs only in the recorded
        # input path (the shared pretrain checkpoint)
        assert a.arch.choices == b.arch.choices
        assert a.weights.keys() == b.weights.keys()
        for name in a.weights:
            assert (a.weights[name] == b.weights[name]).all(), name

    def test_sweep_cli_and_arm_isolation(self, workspace, tmp_path, capsys):
        tmp_path_ws, cfg, _ = workspace
        cfg = dict(cfg)
        cfg["out_dir"] = str(tmp_path / "sweepout")
        # second eta arm gets a broken input; first must still succeed
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "-c", path]) == 0
        report = json.loads((tmp_path / "sweepout" / "sweep.json").read_text())
        assert len(report["systems"]) == 2
        assert all("error" not in s for s in report["systems"])
