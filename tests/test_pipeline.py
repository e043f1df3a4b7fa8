"""Checkpoints, stage contracts, recipes, and adaptation control runs."""

import struct

import numpy as np
import pytest

from confadapt import pipeline
from confadapt.checkpoint import Checkpoint, IncompatibleCheckpointError, _read_sections
from confadapt.data import Corpus, default_domain_pair, generate
from confadapt.pipeline import (
    RecipeError,
    StageConfig,
    StageInputError,
    TrainingDivergedError,
    adapt_supernet,
    derive_model,
    model_from_checkpoint,
    logits_from_checkpoint,
    parameter_finetune,
    pretrain_supernet,
    run_recipe,
    sub_seed,
    supernet_from_checkpoint,
)
from confadapt.optim import Adam
from confadapt.search import ArchLogits, extract
from confadapt.space import ArchSpace, DerivedArch
from confadapt.supernet import ConformerSupernet
from confadapt.tensor import Tensor

SPACE = ArchSpace(
    model_dim=16, feat_dim=6, vocab_size=9, encoder_blocks=1, decoder_blocks=1,
    ff_choices=(8, 16), head_choices=(1, 2), head_dim_choices=(4, 8),
    kernel_choices=(3, 5),
)

OUT_PROJECTIONS = ("out.w", "out.b", "ctc.w", "ctc.b")


@pytest.fixture(scope="module")
def corpora():
    src_spec, tgt_spec = default_domain_pair(feat_dim=6, vocab_tokens=6)
    src = generate(src_spec, {"train": 40, "heldout": 8, "dev": 8, "test": 8})
    tgt = generate(tgt_spec, {"train": 24, "heldout": 8, "dev": 8, "test": 8})
    return {"source": src, "target": tgt}


def cfg(name, kind, **kw):
    base = dict(corpus="source", epochs=1, batch_size=8, lr_weights=1e-3,
                lr_logits=3e-3, patience=None)
    base.update(kw)
    return StageConfig(name=name, kind=kind, **base)


class TestCheckpointRoundTrip:
    def test_bitwise_round_trip(self, corpora, tmp_path):
        path = tmp_path / "sn.ckpt"
        pretrain_supernet(corpora["source"], cfg("p", "pretrain", epochs=1), SPACE, path, seed=3)
        blob = path.read_bytes()
        again = tmp_path / "sn2.ckpt"
        Checkpoint.load(path).save(again)
        assert again.read_bytes() == blob

    def test_loaded_contents_match(self, corpora, tmp_path):
        path = tmp_path / "sn.ckpt"
        ckpt, _ = pretrain_supernet(corpora["source"], cfg("p", "pretrain"), SPACE, path, seed=3)
        loaded = Checkpoint.load(path)
        assert loaded.kind == "supernet"
        assert loaded.space == SPACE
        for name, arr in ckpt.weights.items():
            assert (loaded.weights[name] == arr).all()
        for name, arr in ckpt.logits.items():
            assert (loaded.logits[name] == arr).all()
        assert loaded.lineage == ckpt.lineage
        m_path = tmp_path / "m.ckpt"
        derive_model(loaded, corpora["source"], cfg("d", "derive", epochs=0), m_path, seed=3)
        # each file holds exactly the sections some loader reads
        assert list(_read_sections(path.read_bytes(), path)) == [
            "meta", "space", "weights", "logits", "lineage"]
        assert list(_read_sections(m_path.read_bytes(), m_path)) == [
            "meta", "space", "weights", "arch", "lineage"]

    def test_truncated_or_foreign_file_rejected(self, tmp_path):
        bad = tmp_path / "x.ckpt"
        bad.write_bytes(b"not a checkpoint")
        with pytest.raises(IncompatibleCheckpointError, match="not a checkpoint"):
            Checkpoint.load(bad)

    def test_truncated_file_or_missing_section_names_path(self, tmp_path):
        weights = {n: p.data for n, p in ConformerSupernet(SPACE, seed=0).params.items()}
        good = tmp_path / "good.ckpt"
        Checkpoint(kind="model", space=SPACE, weights=weights, arch=DerivedArch.minimal(SPACE),
                   lineage=[{"stage": "p"}]).save(good)
        blob = good.read_bytes()
        bad = tmp_path / "bad.ckpt"
        for cut in (10, 20, 64, len(blob) // 2, len(blob) - 3, len(blob) - 1):
            bad.write_bytes(blob[:cut])
            with pytest.raises(IncompatibleCheckpointError, match="bad.ckpt"):
                Checkpoint.load(bad)
        # the first occurrence of the name is its entry in the section table
        bad.write_bytes(blob.replace(b"lineage", b"lineagX", 1))
        with pytest.raises(IncompatibleCheckpointError, match="missing sections.*lineage"):
            Checkpoint.load(bad)
        # another format version; the u32 after the 8-byte magic
        bad.write_bytes(blob[:8] + struct.pack("<I", 2) + blob[12:])
        with pytest.raises(IncompatibleCheckpointError, match="bad.ckpt.*version 2"):
            Checkpoint.load(bad)
        # well-formed sections with malformed contents; each edit keeps the
        # byte length, so only the JSON meaning changes
        for old, new in ((b'"kind"', b'"kinX"'),               # meta without a kind
                         (b'"model"', b'"modeX"'),             # a kind with no loader
                         (b'"model_dim"', b'"model_diX"'),     # unknown space field
                         (b'[8, 16]', b'[16, 8]'),             # ff_choices out of order
                         (b'"enc.0.ck": 3', b'"enc.0.ck": 4'), # kernel not in the space
                         (b'"enc.0.fd"', b'"enc.0.fX"')):      # unknown arch group
            assert blob.count(old) == 1
            bad.write_bytes(blob.replace(old, new))
            with pytest.raises(IncompatibleCheckpointError, match="bad.ckpt"):
                Checkpoint.load(bad)
        # a model file without its arch section
        bad.write_bytes(blob.replace(b"arch", b"arcX", 1))
        with pytest.raises(IncompatibleCheckpointError, match="bad.ckpt.*model.*'arch'"):
            Checkpoint.load(bad)
        # a logits group with fewer or more entries than its choices
        logits = {f"{k[0]}.{k[1]}.{k[2]}": np.zeros(len(c)) for k, c in SPACE.groups()}
        for length in (1, 3):
            wrong = dict(logits, **{"enc.0.fd": np.full(length, 2.5)})
            Checkpoint(kind="supernet", space=SPACE, weights=weights, logits=wrong,
                       logits_meta={"temperature": 1.0}).save(bad)
            with pytest.raises(IncompatibleCheckpointError, match="bad.ckpt.*enc.0.fd"):
                Checkpoint.load(bad)
        # a supernet file without its logits section, or with a logits group
        # renamed away
        Checkpoint(kind="supernet", space=SPACE, weights=weights, logits=logits,
                   logits_meta={"temperature": 1.0}).save(good)
        blob = good.read_bytes()
        assert blob.count(b"enc.0.fd") == 1
        for old, new, what in ((b"logits", b"logitX", "supernet.*'logits'"),
                               (b"enc.0.fd", b"enc.0.fX", "enc.0.fd is missing")):
            bad.write_bytes(blob.replace(old, new, 1))
            with pytest.raises(IncompatibleCheckpointError, match=f"bad.ckpt.*{what}"):
                Checkpoint.load(bad)

    def test_missing_or_misshapen_weight_raises_one_error(self, corpora, tmp_path):
        weights = {n: p.data for n, p in ConformerSupernet(SPACE, seed=0).params.items()}
        logits = {f"{k[0]}.{k[1]}.{k[2]}": np.zeros(len(c)) for k, c in SPACE.groups()}
        arch = DerivedArch.maximal(SPACE)
        name = "enc.0.attn.wo"
        missing = {n: w for n, w in weights.items() if n != name}
        misshapen = dict(weights, **{name: weights[name][:-1]})
        for bad, message in ((missing, f"checkpoint is missing parameter {name}"),
                             (misshapen, f"checkpoint parameter {name}: shape")):
            model = Checkpoint(kind="model", space=SPACE, weights=bad, arch=arch)
            with pytest.raises(IncompatibleCheckpointError, match=message):
                model_from_checkpoint(model)
            supernet = Checkpoint(kind="supernet", space=SPACE, weights=bad, logits=logits,
                                  logits_meta={"temperature": 1.0})
            with pytest.raises(IncompatibleCheckpointError, match=message):
                derive_model(supernet, corpora["source"], cfg("d", "derive", epochs=0),
                             tmp_path / "m.ckpt")

    def test_loaded_models_copy_the_checkpoint_weights(self):
        # one Checkpoint may feed several stage calls, so a model must never
        # train the arrays it was loaded from
        weights = {n: p.data.copy() for n, p in ConformerSupernet(SPACE, seed=0).params.items()}
        logits = {f"{k[0]}.{k[1]}.{k[2]}": np.zeros(len(c)) for k, c in SPACE.groups()}
        before = {n: w.tobytes() for n, w in weights.items()}
        supernet = supernet_from_checkpoint(
            Checkpoint(kind="supernet", space=SPACE, weights=weights, logits=logits))
        model = model_from_checkpoint(Checkpoint(kind="model", space=SPACE, weights=weights,
                                                 arch=DerivedArch.maximal(SPACE)))
        for net in (supernet, model):
            for name, p in net.params.items():
                assert p.data.tobytes() == before[name]
                p.data += 1.0
        assert {n: w.tobytes() for n, w in weights.items()} == before

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Checkpoint.load(tmp_path / "absent.ckpt")


class TestPretrain:
    def test_zero_epochs_equals_initialization(self, corpora, tmp_path):
        path = tmp_path / "sn.ckpt"
        ckpt, history = pretrain_supernet(
            corpora["source"], cfg("p", "pretrain", epochs=0), SPACE, path, seed=7
        )
        assert history == []
        fresh = ConformerSupernet(SPACE, seed=sub_seed(7, "init"))
        for name, p in fresh.named_parameters().items():
            assert (ckpt.weights[name] == p.data).all()
        for arr in ckpt.logits.values():
            assert (arr == 0).all()
        assert [e["stage"] for e in ckpt.lineage] == ["p"]

    def test_fixed_seed_bit_reproducible(self, corpora, tmp_path):
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        pretrain_supernet(corpora["source"], cfg("p", "pretrain", epochs=2), SPACE, a, seed=11)
        pretrain_supernet(corpora["source"], cfg("p", "pretrain", epochs=2), SPACE, b, seed=11)
        assert a.read_bytes() == b.read_bytes()

    def test_divergence_aborts_and_retains_last_good(self, corpora, tmp_path):
        src_spec, _ = default_domain_pair(feat_dim=6, vocab_tokens=6)
        poisoned = generate(src_spec, {"train": 16, "heldout": 8})
        poisoned.split("train")[0].features[0, 0] = np.nan
        path = tmp_path / "sn.ckpt"
        with pytest.raises(TrainingDivergedError, match="diverged"):
            pretrain_supernet(poisoned, cfg("p", "pretrain", epochs=2), SPACE, path, seed=1)
        assert path.exists()
        retained = Checkpoint.load(path)
        assert all(np.isfinite(a).all() for a in retained.weights.values())

    def test_two_branch_toy_selects_source_optimal_branch(self, corpora, tmp_path):
        # analytic task: one group's first candidate has strictly lower loss
        key = ("enc", 0, "ck")
        costs = np.array([1.0, 2.0])

        class ToyTask:
            space = SPACE

            def __init__(self):
                self.w = Tensor(np.array([4.0]), requires_grad=True)

            def named_parameters(self):
                return {"w": self.w}

            def batch_loss(self, batch, lam):
                branch = (lam[key] * Tensor(costs)).sum()
                return branch + ((self.w - 1.0) * (self.w - 1.0)).sum()

        path = tmp_path / "toy.ckpt"
        stage = cfg("p", "pretrain", epochs=40, lr_logits=1e-2, lr_weights=2e-2)
        ckpt, _ = pipeline._search_stage(
            ToyTask(), ArchLogits(SPACE),
            corpora["source"], stage, 5, path, [],
        )
        logits = logits_from_checkpoint(ckpt)
        lam = np.exp(ckpt.logits["enc.0.ck"])
        lam = lam / lam.sum()
        assert lam[0] > 0.9
        assert extract(logits)[key] == 3
        # the trainable weight converged toward its optimum too
        assert abs(float(ckpt.weights["w"][0]) - 1.0) < 1.0


@pytest.fixture(scope="module")
def pretrained(corpora, tmp_path_factory):
    path = tmp_path_factory.mktemp("pre") / "sn.ckpt"
    ckpt, _ = pretrain_supernet(
        corpora["source"], cfg("p", "pretrain", epochs=2), SPACE, path, seed=13
    )
    return ckpt


class TestAdapt:
    def test_zero_epochs_keeps_logits(self, pretrained, corpora, tmp_path):
        path = tmp_path / "ad.ckpt"
        stage = cfg("a", "adapt", corpus="target", epochs=0, t_end=0.2)
        ckpt, _ = adapt_supernet(pretrained, corpora["target"], stage, path, seed=2)
        for name, arr in pretrained.logits.items():
            assert (ckpt.logits[name] == arr).all()
        # the temperature comes from the stage schedule, not from the input file
        assert pretrained.logits_meta == {"temperature": 0.1}
        assert Checkpoint.load(path).logits_meta == {"temperature": stage.temperature(0)}
        assert stage.temperature(0) == 0.2

    def test_space_mismatch_rejected(self, pretrained, corpora, tmp_path):
        # a recipe checks every input checkpoint against its configured
        # space, whatever the stage kind
        other = ArchSpace(
            model_dim=16, feat_dim=6, vocab_size=9, encoder_blocks=1, decoder_blocks=1,
            ff_choices=(8, 32), head_choices=(1, 2), head_dim_choices=(4, 8),
            kernel_choices=(3, 5),
        )
        sn_path = tmp_path / "sn.ckpt"
        pretrained.save(sn_path)
        m_path = tmp_path / "m.ckpt"
        derive_model(pretrained, corpora["source"], cfg("d", "derive", epochs=0), m_path, seed=3)
        for stage in (cfg("a", "adapt", corpus="target", input=str(sn_path)),
                      cfg("f", "finetune", corpus="target", input=str(m_path))):
            with pytest.raises(IncompatibleCheckpointError, match="space"):
                run_recipe([stage], corpora, tmp_path / "out", other, seed=2)

    def test_model_checkpoint_rejected(self, pretrained, corpora, tmp_path):
        dpath = tmp_path / "m.ckpt"
        mckpt, _ = derive_model(pretrained, corpora["source"],
                                cfg("d", "derive", epochs=0), dpath, seed=3)
        with pytest.raises(IncompatibleCheckpointError, match="supernet"):
            adapt_supernet(mckpt, corpora["target"],
                           cfg("a", "adapt", corpus="target"), tmp_path / "y.ckpt", seed=2)


class TestDerive:
    def test_patience_needs_dev_split(self, pretrained, corpora, tmp_path):
        src = corpora["source"]
        no_dev = Corpus(src.domain, src.vocab_size, src.feat_dim, {"train": src.split("train")})
        path = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match="'d': patience needs a dev split"):
            derive_model(pretrained, no_dev, cfg("d", "derive", patience=0), path, seed=3)
        assert not path.exists()


@pytest.fixture(scope="module")
def model_ckpt(corpora, tmp_path_factory):
    base = tmp_path_factory.mktemp("ft")
    ck, _ = pretrain_supernet(corpora["source"], cfg("p", "pretrain", epochs=1),
                              SPACE, base / "sn.ckpt", seed=17)
    mck, _ = derive_model(ck, corpora["source"], cfg("d", "derive", epochs=1),
                          base / "m.ckpt", seed=18)
    return mck


class TestFinetune:
    def test_zero_epochs_flag_off_keeps_weights(self, model_ckpt, corpora, tmp_path):
        ckpt, _ = parameter_finetune(
            model_ckpt, corpora["target"],
            cfg("f", "finetune", corpus="target", epochs=0), tmp_path / "f.ckpt", seed=4,
        )
        for name, arr in model_ckpt.weights.items():
            assert (ckpt.weights[name] == arr).all()

    def test_reinit_flag_scopes_to_output_projections(self, model_ckpt, corpora, tmp_path):
        ckpt, _ = parameter_finetune(
            model_ckpt, corpora["target"],
            cfg("f", "finetune", corpus="target", epochs=0, reinit_output=True),
            tmp_path / "f.ckpt", seed=4,
        )
        for name, arr in model_ckpt.weights.items():
            if name in OUT_PROJECTIONS and name.endswith(".w"):
                assert (ckpt.weights[name] != arr).any(), name
            elif name in OUT_PROJECTIONS:
                continue  # zero biases reinitialize to zeros again
            else:
                assert (ckpt.weights[name] == arr).all(), name

    def test_arch_and_space_never_mutated(self, model_ckpt, corpora, tmp_path):
        ckpt, _ = parameter_finetune(
            model_ckpt, corpora["target"],
            cfg("f", "finetune", corpus="target", epochs=2, patience=None),
            tmp_path / "f.ckpt", seed=4,
        )
        assert ckpt.arch.choices == model_ckpt.arch.choices
        assert ckpt.space == model_ckpt.space

    def test_early_stopping_keeps_the_best_epoch(self, model_ckpt, corpora, tmp_path,
                                                 monkeypatch):
        # dev TER per epoch: epoch 1 is the best, and patience 1 stops after epoch 3
        ters = iter([0.5, 0.3, 0.4, 0.4])
        path = tmp_path / "f.ckpt"
        on_disk = []  # the file at each epoch end, before that epoch's keep decision

        def scripted_ter(model, utterances):
            on_disk.append(path.read_bytes())
            return next(ters)

        monkeypatch.setattr(pipeline, "corpus_ter", scripted_ter)
        ckpt, history = parameter_finetune(
            model_ckpt, corpora["target"],
            cfg("f", "finetune", corpus="target", epochs=10, patience=1), path, seed=4,
        )
        assert [e["dev_ter"] for e in history] == [0.5, 0.3, 0.4, 0.4]
        # the file is always what the stage would return if it stopped now
        assert on_disk[2] == on_disk[3] == path.read_bytes()
        loaded = Checkpoint.load(path)
        best, _ = parameter_finetune(
            model_ckpt, corpora["target"],
            cfg("f", "finetune", corpus="target", epochs=2, patience=None),
            tmp_path / "best.ckpt", seed=4,
        )
        for name, arr in best.weights.items():
            assert loaded.weights[name].tobytes() == ckpt.weights[name].tobytes(), name
            assert ckpt.weights[name].tobytes() == arr.tobytes(), name

    def test_divergence_aborts_and_retains_last_good(self, model_ckpt, tmp_path):
        _, tgt_spec = default_domain_pair(feat_dim=6, vocab_tokens=6)
        poisoned = generate(tgt_spec, {"train": 16, "dev": 8})
        poisoned.split("train")[0].features[0, 0] = np.nan
        path = tmp_path / "f.ckpt"
        with pytest.raises(TrainingDivergedError, match="diverged at epoch 0"):
            parameter_finetune(model_ckpt, poisoned,
                               cfg("f", "finetune", corpus="target", epochs=2), path, seed=4)
        # the loss is checked before backward, so no poisoned update reached
        # the weights; the file on disk is the one written at the stage start
        retained = Checkpoint.load(path)
        for name, arr in model_ckpt.weights.items():
            assert retained.weights[name].tobytes() == arr.tobytes(), name

    def test_non_finite_gradient_aborts_before_the_update(self, model_ckpt, corpora, tmp_path,
                                                          monkeypatch):
        class OverflowingAdam(Adam):
            def step(self):
                next(iter(self.params.values())).grad.flat[0] = np.inf
                super().step()

        monkeypatch.setattr(pipeline, "Adam", OverflowingAdam)
        path = tmp_path / "f.ckpt"
        with pytest.raises(TrainingDivergedError, match="diverged at epoch 0") as err:
            parameter_finetune(model_ckpt, corpora["target"],
                               cfg("f", "finetune", corpus="target", epochs=2), path, seed=4)
        assert isinstance(err.value.__cause__, FloatingPointError)
        retained = Checkpoint.load(path)
        for name, arr in model_ckpt.weights.items():
            assert retained.weights[name].tobytes() == arr.tobytes(), name

    def test_lineage_append_only(self, model_ckpt, corpora, tmp_path):
        ckpt, _ = parameter_finetune(
            model_ckpt, corpora["target"],
            cfg("f", "finetune", corpus="target", epochs=1), tmp_path / "f.ckpt", seed=4,
        )
        assert ckpt.lineage[: len(model_ckpt.lineage)] == model_ckpt.lineage
        assert [e["stage"] for e in ckpt.lineage] == ["p", "d", "f"]


class TestRunRecipe:
    def _stages(self):
        return [
            cfg("pre", "pretrain", epochs=1, output="sn"),
            cfg("ad", "adapt", corpus="target", epochs=1, input="sn", output="sn_t"),
            cfg("de", "derive", corpus="source", epochs=1, input="sn_t", output="m"),
            cfg("ft", "finetune", corpus="target", epochs=1, input="m", output="m_t"),
        ]

    def test_full_recipe_runs_and_reports(self, corpora, tmp_path):
        rep = run_recipe(self._stages(), corpora, tmp_path, SPACE, seed=23)
        assert [s["name"] for s in rep["stages"]] == ["pre", "ad", "de", "ft"]
        final = Checkpoint.load(rep["checkpoints"]["m_t"])
        assert final.kind == "model"
        assert [e["stage"] for e in final.lineage] == ["pre", "ad", "de", "ft"]
        model = model_from_checkpoint(final)
        assert model.param_count() > 0

    def test_rerun_is_bit_identical(self, corpora, tmp_path):
        rep1 = run_recipe(self._stages(), corpora, tmp_path / "r1", SPACE, seed=29)
        rep2 = run_recipe(self._stages(), corpora, tmp_path / "r2", SPACE, seed=29)
        for name, p1 in rep1["checkpoints"].items():
            b1 = open(p1, "rb").read()
            b2 = open(rep2["checkpoints"][name], "rb").read()
            assert b1 == b2, f"checkpoint {name} differs between identical runs"

    def test_unknown_input_refused_with_diagnostic(self, corpora, tmp_path):
        corrupt = tmp_path / "bad.ckpt"
        corrupt.write_bytes(b"not a checkpoint")
        for given, error, message in (
                ("nonexistent", RecipeError, "nonexistent"),
                (str(corrupt), StageInputError, "bad.ckpt: not a checkpoint")):
            stages = [cfg("de", "derive", input=given, output="m")]
            with pytest.raises(error, match=message):
                run_recipe(stages, corpora, tmp_path / "out", SPACE, seed=1)
            assert not (tmp_path / "out").exists()

    def test_wrong_kind_input_refused(self, corpora, tmp_path):
        stages = [
            cfg("pre", "pretrain", epochs=0, output="sn"),
            cfg("ft", "finetune", corpus="target", input="sn", output="m_t"),
        ]
        with pytest.raises(RecipeError, match="requires a model checkpoint"):
            run_recipe(stages, corpora, tmp_path, SPACE, seed=1)

    def test_missing_input_field_refused(self, corpora, tmp_path):
        with pytest.raises(RecipeError, match="requires an input"):
            run_recipe([cfg("ad", "adapt")], corpora, tmp_path, SPACE, seed=1)

    def test_duplicate_outputs_refused_before_any_stage(self, corpora, tmp_path):
        for stages, message in (
            ([cfg("a", "pretrain", epochs=0, output="x"),
              cfg("b", "pretrain", epochs=0, output="x")], "outputs must be unique"),
            ([cfg("x", "pretrain", epochs=0),
              cfg("b", "pretrain", epochs=0, output="x")], "outputs must be unique"),
            ([cfg("a", "pretrain", epochs=0, output="x"),
              cfg("a", "pretrain", epochs=0, output="y")], "names must be unique"),
        ):
            with pytest.raises(RecipeError, match=message):
                run_recipe(stages, corpora, tmp_path, SPACE, seed=1)
            assert not list(tmp_path.glob("**/*.ckpt"))

    def test_unknown_corpus_refused(self, corpora, tmp_path):
        with pytest.raises(RecipeError, match="corpus"):
            run_recipe([cfg("pre", "pretrain", corpus="mystery")], corpora, tmp_path, SPACE)


@pytest.fixture(scope="module")
def control_runs(corpora, tmp_path_factory):
    base = tmp_path_factory.mktemp("controls")
    out = []
    for seed in (31, 37, 41):
        sn, _ = pretrain_supernet(
            corpora["source"], cfg("p", "pretrain", epochs=4, lr_weights=2e-3),
            SPACE, base / f"sn{seed}.ckpt", seed=seed,
        )
        self_ad, _ = adapt_supernet(
            sn, corpora["source"], cfg("a", "adapt", corpus="source", epochs=4),
            base / f"self{seed}.ckpt", seed=seed,
        )
        cross_ad, _ = adapt_supernet(
            sn, corpora["target"],
            cfg("a", "adapt", corpus="target", epochs=30, lr_logits=1e-2),
            base / f"cross{seed}.ckpt", seed=seed,
        )
        out.append((sn, self_ad, cross_ad))
    return out


class TestAdaptationControls:
    """Self-adaptation stability and cross-domain arch movement."""

    def test_self_adaptation_is_stable(self, control_runs):
        # re-adapting on the same domain keeps most extracted choices
        fractions = []
        for sn, self_ad, _ in control_runs:
            before = extract(logits_from_checkpoint(sn))
            after = extract(logits_from_checkpoint(self_ad))
            same = sum(before[k] == after[k] for k in before.choices)
            fractions.append(same / len(before.choices))
        assert np.median(fractions) >= 0.9

    def test_cross_domain_adaptation_moves_some_group(self, control_runs):
        changed = []
        for sn, _, cross_ad in control_runs:
            before = extract(logits_from_checkpoint(sn))
            after = extract(logits_from_checkpoint(cross_ad))
            changed.append(sum(before[k] != after[k] for k in before.choices))
        assert np.median(changed) >= 1
