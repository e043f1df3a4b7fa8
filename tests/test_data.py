"""Synthetic corpus generation, determinism, serialization, median split."""

import json
import math
import re

import numpy as np
import pytest

from confadapt.data import (
    Corpus,
    DomainSpec,
    Utterance,
    _write_features,
    default_domain_pair,
    generate,
    iter_batches,
    make_batch,
    median_split,
)
from confadapt.losses import BLANK_ID, EOS_ID, FIRST_TOKEN_ID, SOS_ID


COUNTS = {"train": 30, "heldout": 6, "dev": 6, "test": 10}


def small_spec(**kw):
    base = dict(domain="source", feat_dim=6, vocab_tokens=5, mean_frames=40.0,
                tokens_min=2, tokens_max=4, seed=3)
    base.update(kw)
    return DomainSpec(**base)


class TestGenerate:
    def test_determinism_bit_identical(self):
        a = generate(small_spec(), COUNTS)
        b = generate(small_spec(), COUNTS)
        for split in COUNTS:
            for u, v in zip(a.split(split), b.split(split)):
                assert u.uid == v.uid
                assert (u.tokens == v.tokens).all()
                assert (u.features == v.features).all()

    def test_counts_and_tags(self):
        c = generate(small_spec(), COUNTS)
        for split, n in COUNTS.items():
            utts = c.split(split)
            assert len(utts) == n
            assert all(u.split == split and u.domain == "source" for u in utts)

    def test_tokens_valid(self):
        c = generate(small_spec(), COUNTS)
        for split in COUNTS:
            for u in c.split(split):
                assert (u.tokens >= FIRST_TOKEN_ID).all()
                assert (u.tokens < c.vocab_size).all()
                assert BLANK_ID not in u.tokens
                # grammar avoids adjacent repeats
                assert all(a != b for a, b in zip(u.tokens, u.tokens[1:]))

    def test_ctc_feasibility_invariant(self):
        for spec in default_domain_pair(feat_dim=6, vocab_tokens=5):
            c = generate(spec, {"train": 40})
            for u in c.split("train"):
                assert u.duration >= 4 * (len(u.tokens) + 1)

    def test_noiseless_identical_sequences_share_features(self):
        spec = small_spec(noise_std=0.0, frames_jitter=0.0, seg_jitter=0.0,
                          tokens_min=2, tokens_max=2, mean_frames=16.0)
        c = generate(spec, {"train": 60})
        seen = {}
        hits = 0
        for u in c.split("train"):
            key = tuple(u.tokens)
            if key in seen:
                hits += 1
                np.testing.assert_array_equal(u.features, seen[key])
            else:
                seen[key] = u.features
        assert hits > 0  # 60 draws over 5*4 sequences must collide

    def test_mean_length_within_ten_percent(self):
        src, tgt = default_domain_pair(feat_dim=6, vocab_tokens=5)
        for spec in (src, tgt):
            c = generate(spec, {"train": 300})
            mean = np.mean([u.duration for u in c.split("train")])
            assert abs(mean - spec.mean_frames) / spec.mean_frames < 0.10

    def test_source_target_length_ratio(self):
        src, tgt = default_domain_pair(feat_dim=6, vocab_tokens=5)
        cs = generate(src, {"train": 200})
        ct = generate(tgt, {"train": 200})
        ms = np.mean([u.duration for u in cs.split("train")])
        mt = np.mean([u.duration for u in ct.split("train")])
        assert 9.0 <= ms / mt <= 11.0

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            generate(small_spec(), {"train": 0})

    def test_infeasible_spec_errors_after_retries(self):
        spec = small_spec(mean_frames=6.0, frames_jitter=0.0, tokens_min=4, tokens_max=4)
        with pytest.raises(RuntimeError, match="feasible"):
            generate(spec, {"train": 1})


class TestWarpGrading:
    def test_grading_concentrates_warp_on_short_utterances(self):
        spec = small_spec(tokens_min=1, tokens_max=1, mean_frames=12.0,
                          frames_jitter=0.5, noise_std=0.0,
                          channel_shift=5.0, warp_length_grading=1.0, seed=9)
        c = generate(spec, {"train": 60})
        utts = sorted(c.split("train"), key=lambda u: u.duration)
        shortest = np.mean([u.features.mean() for u in utts[:5]])
        longest = np.mean([u.features.mean() for u in utts[-5:]])
        # the +5 channel shift applies in full to squeezed utterances and
        # fades out toward the most stretched ones
        assert shortest - longest > 2.0

    def test_grading_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="grading"):
            small_spec(warp_length_grading=1.5)


class TestSpecValidation:
    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="invertible"):
            small_spec(channel_scale=0.0)

    def test_single_token_vocab_needs_single_token_utterances(self):
        with pytest.raises(ValueError, match="adjacent repeats"):
            small_spec(vocab_tokens=1, tokens_min=2, tokens_max=3)

    def test_json_round_trip(self):
        src, tgt = default_domain_pair(feat_dim=6, vocab_tokens=5)
        for spec in (src, tgt):
            again = DomainSpec(**spec.to_json())
            assert np.allclose(again.channel_arrays()[0], spec.channel_arrays()[0])
            assert again.mean_frames == spec.mean_frames
            assert again == spec

    def test_wrong_length_warp_rejected(self):
        # the message states the rule: a number, or one number per channel
        for field in ("channel_shift", "channel_scale"):
            for value in ((1.0, 2.0), (0.1,)):
                rule = (f"{field} must be a finite number or a list of feat_dim (6) finite "
                        f"numbers, got {value}")
                with pytest.raises(ValueError, match=re.escape(rule)):
                    small_spec(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("mean_frames", math.inf), ("mean_frames", math.nan), ("tempo", math.nan),
        ("tempo", math.inf), ("noise_std", -1.0), ("noise_std", math.nan),
        ("seg_jitter", 1.5), ("seg_jitter", -0.5), ("channel_shift", math.inf),
        ("channel_scale", (1.0,) * 5 + (math.nan,)),
        ("feat_dim", 0), ("vocab_tokens", 0), ("tokens_min", 5),
    ])
    def test_value_it_cannot_generate_from_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_spec(**{field: value})

    def test_scalar_warp_is_its_per_channel_spelling(self):
        scalar = small_spec(channel_shift=0.5, channel_scale=2.0)
        assert scalar == small_spec(channel_shift=[0.5] * 6, channel_scale=(2.0,) * 6)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        c = generate(small_spec(), COUNTS)
        c.save(tmp_path / "corpus")
        d = Corpus.load(tmp_path / "corpus")
        assert d.vocab_size == c.vocab_size and d.feat_dim == c.feat_dim
        for split in COUNTS:
            orig = {u.uid: u for u in c.split(split)}
            again = {u.uid: u for u in d.split(split)}
            assert orig.keys() == again.keys()
            for uid, u in orig.items():
                v = again[uid]
                assert u.features.tobytes() == v.features.tobytes()
                assert (u.tokens == v.tokens).all()
                assert u.duration == v.duration

    def test_version_checked(self, tmp_path):
        c = generate(small_spec(), {"train": 2})
        c.save(tmp_path / "corpus")
        meta = (tmp_path / "corpus" / "meta.json")
        meta.write_text(meta.read_text().replace('"format_version": 1', '"format_version": 9'))
        with pytest.raises(ValueError, match="format_version"):
            Corpus.load(tmp_path / "corpus")

    def test_truncated_or_oversized_feature_file_names_path(self, tmp_path):
        c = generate(small_spec(), {"train": 1})
        c.save(tmp_path / "corpus")
        feats = next((tmp_path / "corpus" / "feats").iterdir())
        blob = feats.read_bytes()
        for cut in (2, 10, 23, 24, 30, len(blob) - 8, len(blob) - 1):
            feats.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match=feats.name):
                Corpus.load(tmp_path / "corpus")
        feats.write_bytes(blob + bytes(8))
        with pytest.raises(ValueError, match=feats.name):
            Corpus.load(tmp_path / "corpus")

    def test_feature_file_channel_count_checked(self, tmp_path):
        c = generate(small_spec(), {"train": 2})
        c.save(tmp_path / "corpus")
        u = c.split("train")[1]
        # a well-formed file of the right length, one channel short
        path = tmp_path / "corpus" / "feats" / f"{u.uid}.f64"
        _write_features(path, u.features[:, :5])
        with pytest.raises(ValueError, match=path.name):
            Corpus.load(tmp_path / "corpus")

    def test_feature_file_version_checked(self, tmp_path):
        c = generate(small_spec(), {"train": 1})
        c.save(tmp_path / "corpus")
        feats = next((tmp_path / "corpus" / "feats").iterdir())
        blob = bytearray(feats.read_bytes())
        blob[4] += 1  # the version field follows the 4-byte magic
        feats.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=f"{feats.name}: unsupported feature version"):
            Corpus.load(tmp_path / "corpus")

    def test_manifest_duration_mismatch_names_path_and_id(self, tmp_path):
        c = generate(small_spec(), {"train": 2})
        root = tmp_path / "corpus"
        c.save(root)
        u = c.split("train")[1]
        manifest = root / "manifest.jsonl"
        recs = [json.loads(line) for line in manifest.read_text().splitlines()]
        next(r for r in recs if r["id"] == u.uid)["duration"] += 1
        manifest.write_text("".join(json.dumps(r) + "\n" for r in recs))
        with pytest.raises(ValueError, match=f"corpus at {re.escape(str(root))}: "
                                             f"duration mismatch for {u.uid}"):
            Corpus.load(root)

    @pytest.mark.parametrize("bad", ["blank", "sos", "eos", "vocab_size", "fraction",
                                     "no frames"])
    def test_untrainable_utterance_refused_naming_path_and_id(self, tmp_path, bad):
        c = generate(small_spec(), {"train": 2})
        root = tmp_path / "corpus"
        c.save(root)
        u = c.split("train")[1]
        manifest = root / "manifest.jsonl"
        recs = [json.loads(line) for line in manifest.read_text().splitlines()]
        rec = next(r for r in recs if r["id"] == u.uid)
        if bad == "no frames":
            _write_features(root / "feats" / f"{u.uid}.f64", u.features[:0])
            rec["duration"] = 0
        else:
            ids = {"blank": BLANK_ID, "sos": SOS_ID, "eos": EOS_ID, "vocab_size": c.vocab_size,
                   "fraction": FIRST_TOKEN_ID + 0.5}
            rec["tokens"][-1] = ids[bad]
        manifest.write_text("".join(json.dumps(r) + "\n" for r in recs))
        with pytest.raises(ValueError, match=f"corpus at {re.escape(str(root))}: "
                                             f"utterance {u.uid} has"):
            Corpus.load(root)


def _utt(uid, dur):
    return Utterance(uid, "d", "test", np.zeros((dur, 2)), np.array([3]))


class TestMedianSplit:
    def test_even_case(self):
        utts = [_utt(str(i), d) for i, d in enumerate([1, 2, 3, 4])]
        shorter, longer = median_split(utts)
        assert sorted(u.duration for u in shorter) == [1, 2]
        assert sorted(u.duration for u in longer) == [3, 4]

    def test_all_equal_go_shorter(self):
        utts = [_utt(str(i), 5) for i in range(4)]
        shorter, longer = median_split(utts)
        assert len(shorter) == 4 and len(longer) == 0

    def test_distinct_durations_balance(self):
        rng = np.random.default_rng(1)
        durs = rng.permutation(np.arange(10, 61))  # distinct
        utts = [_utt(str(i), int(d)) for i, d in enumerate(durs)]
        shorter, longer = median_split(utts)
        assert abs(len(shorter) - len(longer)) in (0, 1)
        assert max(u.duration for u in shorter) < min(u.duration for u in longer)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            median_split([])


class TestTaskSanity:
    """The synthetic task must be learnable and the domain gap real."""

    def test_source_trained_baseline_reaches_low_ter(self, source_baseline):
        assert source_baseline["src_dev_ter"] < 0.05, source_baseline["src_dev_ter"]

    def test_domain_gap_at_least_ten_points(self, source_baseline):
        gap = source_baseline["tgt_dev_ter"] - source_baseline["src_dev_ter"]
        assert gap >= 0.10, source_baseline


class TestBatching:
    def test_padding_and_masks(self):
        utts = [_utt("a", 5), _utt("b", 9)]
        utts[0].tokens = np.array([3, 4])
        utts[1].tokens = np.array([5])
        b = make_batch(utts)
        assert b.features.shape == (2, 9, 2)
        assert list(b.feat_lens) == [5, 9]
        assert b.tokens_in.shape == (2, 3)
        assert b.tokens_in[0, 0] == 1  # sos
        assert b.size == 2

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            make_batch([])

    def test_iter_batches_deterministic_with_seed(self):
        utts = [_utt(str(i), 4 + i) for i in range(7)]
        a = [tuple(b.feat_lens) for b in iter_batches(utts, 3, np.random.default_rng(5))]
        b = [tuple(b.feat_lens) for b in iter_batches(utts, 3, np.random.default_rng(5))]
        assert a == b
