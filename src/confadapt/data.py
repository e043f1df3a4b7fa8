"""Deterministic synthetic bi-domain corpora.

The generator emits a "source" domain of long utterances and a "target"
domain of short ones with shifted channel statistics, mimicking a large
source/target utterance-length mismatch. Features are token-conditioned
prototype patterns: every token id owns a smooth per-channel curve
(fixed by the grammar seed, shared across domains), traversed once per
token segment, warped per domain (per-channel affine shift/scale plus a
tempo factor that multiplies the traversal rate) with optional noise.
``warp_length_grading`` scales the warp intensity with each utterance's
time squeeze, concentrating the domain shift on the shortest
utterances.

Token sequences avoid adjacent repeats, so an utterance of n tokens is
CTC-feasible whenever it has at least 4*(n+1) frames (the encoder
front end downsamples 4x).

On-disk corpus layout (all integers little-endian):

- ``meta.json``: format_version, domain, vocab_size, feat_dim, spec.
- ``manifest.jsonl``: one record per utterance with id, domain, split,
  duration and token ids.
- ``feats/<id>.f64``: magic ``CFTF``, u32 version, u64 frames, u64 dim,
  then frames*dim float64 values, row-major.
"""

from __future__ import annotations

import json
import struct

from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .losses import FIRST_TOKEN_ID, SOS_ID, EOS_ID

FEAT_MAGIC = b"CFTF"
FEAT_VERSION = 1
META_VERSION = 1
SPLIT_ORDER = ("train", "heldout", "dev", "test")


@dataclass(frozen=True)
class DomainSpec:
    domain: str = "source"
    feat_dim: int = 16
    vocab_tokens: int = 12
    mean_frames: float = 120.0
    frames_jitter: float = 0.3
    tokens_min: int = 4
    tokens_max: int = 8
    seg_jitter: float = 0.3
    tempo: float = 1.0
    noise_std: float = 0.05
    channel_shift: float | tuple[float, ...] = 0.0
    channel_scale: float | tuple[float, ...] = 1.0
    warp_length_grading: float = 0.0
    grammar_seed: int = 1234
    seed: int = 0

    def __post_init__(self):
        if self.feat_dim < 1 or self.vocab_tokens < 1:
            raise ValueError("DomainSpec: feat_dim and vocab_tokens must be positive")
        for name, ok, rule in (
                ("mean_frames", 0 < self.mean_frames < np.inf, "finite and positive"),
                ("frames_jitter", 0 <= self.frames_jitter < 1, "in [0, 1)"),
                ("seg_jitter", 0 <= self.seg_jitter < 1, "in [0, 1)"),
                ("tempo", 0 < self.tempo < np.inf, "finite and positive"),
                ("noise_std", 0 <= self.noise_std < np.inf, "finite and nonnegative"),
                ("warp_length_grading", 0 <= self.warp_length_grading <= 1, "in [0, 1]")):
            if not ok:
                raise ValueError(f"DomainSpec: {name} must be {rule}, got {getattr(self, name)}")
        if not 1 <= self.tokens_min <= self.tokens_max:
            raise ValueError("DomainSpec: need 1 <= tokens_min <= tokens_max")
        if self.tokens_max > 1 and self.vocab_tokens < 2:
            raise ValueError(
                "DomainSpec: multi-token utterances need at least 2 vocabulary tokens "
                "(the grammar avoids adjacent repeats)"
            )
        # a warp is stored as feat_dim floats; a scalar applies to every channel
        for name in ("channel_shift", "channel_scale"):
            given = getattr(self, name)
            v = tuple(float(c) for c in ([given] * self.feat_dim if np.ndim(given) == 0 else given))
            if len(v) != self.feat_dim or not np.isfinite(v).all():
                raise ValueError(f"DomainSpec: {name} must be a finite number or a list of "
                                 f"feat_dim ({self.feat_dim}) finite numbers, got {given!r}")
            object.__setattr__(self, name, v)
        if 0.0 in self.channel_scale:
            raise ValueError("DomainSpec: channel_scale must be invertible (nonzero)")

    @property
    def vocab_size(self):
        return FIRST_TOKEN_ID + self.vocab_tokens

    def channel_arrays(self):
        return np.array(self.channel_shift), np.array(self.channel_scale)

    def to_json(self):
        return asdict(self)


@dataclass
class Utterance:
    uid: str
    domain: str
    split: str
    features: np.ndarray
    tokens: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.tokens = np.asarray(self.tokens, dtype=np.int64)

    @property
    def duration(self):
        """Frame count of the features."""
        return int(self.features.shape[0])


class Corpus:
    def __init__(self, domain, vocab_size, feat_dim, splits, spec_json=None):
        self.domain = domain
        self.vocab_size = int(vocab_size)
        self.feat_dim = int(feat_dim)
        self.splits = {k: list(v) for k, v in splits.items()}
        self.spec_json = spec_json or {}

    def split(self, name):
        return self.splits.get(name, [])

    def __len__(self):
        return sum(len(v) for v in self.splits.values())

    def save(self, path):
        path = Path(path)
        (path / "feats").mkdir(parents=True, exist_ok=True)
        meta = {
            "format_version": META_VERSION,
            "domain": self.domain,
            "vocab_size": self.vocab_size,
            "feat_dim": self.feat_dim,
            "spec": self.spec_json,
        }
        (path / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
        lines = []
        for split in sorted(self.splits):
            for u in self.splits[split]:
                lines.append(json.dumps({
                    "id": u.uid,
                    "domain": u.domain,
                    "split": u.split,
                    "duration": u.duration,
                    "tokens": [int(t) for t in u.tokens],
                }, sort_keys=True))
                _write_features(path / "feats" / f"{u.uid}.f64", u.features)
        (path / "manifest.jsonl").write_text("\n".join(lines) + "\n")

    @staticmethod
    def load(path):
        path = Path(path)
        meta = json.loads((path / "meta.json").read_text())
        if meta.get("format_version") != META_VERSION:
            raise ValueError(f"corpus at {path}: unsupported format_version {meta.get('format_version')}")
        splits = {}
        for line in (path / "manifest.jsonl").read_text().splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            feats_path = path / "feats" / f"{rec['id']}.f64"
            feats = _read_features(feats_path)
            if feats.shape[1] != meta["feat_dim"]:
                raise ValueError(f"{feats_path}: {feats.shape[1]} channels, but the corpus "
                                 f"meta.json says feat_dim {meta['feat_dim']}")
            u = Utterance(rec["id"], rec["domain"], rec["split"], feats, np.array(rec["tokens"]))
            if u.duration != rec["duration"]:
                raise ValueError(f"corpus at {path}: duration mismatch for {rec['id']}")
            if u.duration == 0:
                raise ValueError(f"corpus at {path}: utterance {rec['id']} has 0 frames")
            if any(t not in range(FIRST_TOKEN_ID, meta["vocab_size"]) for t in rec["tokens"]):
                raise ValueError(f"corpus at {path}: utterance {rec['id']} has token ids that are "
                                 f"not integers in [{FIRST_TOKEN_ID}, {meta['vocab_size']}): "
                                 f"{rec['tokens']}")
            splits.setdefault(rec["split"], []).append(u)
        return Corpus(meta["domain"], meta["vocab_size"], meta["feat_dim"], splits, meta["spec"])


def _write_features(path, feats):
    frames, dim = feats.shape
    with open(path, "wb") as fh:
        fh.write(FEAT_MAGIC)
        fh.write(struct.pack("<IQQ", FEAT_VERSION, frames, dim))
        fh.write(np.ascontiguousarray(feats, dtype="<f8").tobytes())


def _read_features(path):
    raw = Path(path).read_bytes()
    if raw[:4] != FEAT_MAGIC:
        raise ValueError(f"{path}: not a feature file")
    if len(raw) < 24:
        raise ValueError(f"{path}: truncated feature header ({len(raw)} of 24 bytes)")
    version, frames, dim = struct.unpack("<IQQ", raw[4:24])
    if version != FEAT_VERSION:
        raise ValueError(f"{path}: unsupported feature version {version}")
    if len(raw) != 24 + 8 * frames * dim:
        raise ValueError(
            f"{path}: {len(raw)} bytes, but a {frames}x{dim} feature file "
            f"has {24 + 8 * frames * dim} (truncated or trailing data)"
        )
    data = np.frombuffer(raw[24:], dtype="<f8")
    return data.reshape(frames, dim).astype(np.float64)


# ---------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------


def _prototypes(spec):
    rng = np.random.default_rng(spec.grammar_seed)
    n, f = spec.vocab_tokens, spec.feat_dim
    return {
        "amp": rng.uniform(0.5, 1.2, (n, f)),
        "freq": rng.uniform(0.5, 2.5, (n, f)),
        "phase": rng.uniform(0.0, 1.0, (n, f)),
        "offset": rng.uniform(-0.9, 0.9, (n, f)),
    }


def _render_segment(proto, tok, length, tempo):
    p = (np.arange(length) + 0.5) / length
    arg = proto["freq"][tok][None, :] * tempo * p[:, None] + proto["phase"][tok][None, :]
    return proto["offset"][tok][None, :] + proto["amp"][tok][None, :] * np.sin(2 * np.pi * arg)


def _apportion(total, weights):
    raw = weights / weights.sum() * total
    seg = np.maximum(np.floor(raw).astype(int), 1)
    rem = raw - np.floor(raw)
    while seg.sum() < total:
        i = int(np.argmax(rem))
        seg[i] += 1
        rem[i] = -1
    while seg.sum() > total:
        i = int(np.argmax(seg))
        if seg[i] <= 1:
            break
        seg[i] -= 1
    return seg


def _sample_tokens(spec, n, rng):
    # uniform over real tokens, no adjacent repeats (keeps CTC alignments
    # free of forced inter-token blanks)
    toks = np.empty(n, dtype=np.int64)
    toks[0] = rng.integers(spec.vocab_tokens)
    for i in range(1, n):
        r = rng.integers(spec.vocab_tokens - 1) if spec.vocab_tokens > 1 else 0
        toks[i] = r if r < toks[i - 1] else r + 1
    return toks + FIRST_TOKEN_ID


def _gen_utterance(spec, proto, shift, scale, rng):
    # one segment per token; the nominal segment length comes from the
    # spec mean divided by the mean token count, stretched per utterance
    seg_base = spec.mean_frames / ((spec.tokens_min + spec.tokens_max) / 2.0)
    for _ in range(100):
        n = int(rng.integers(spec.tokens_min, spec.tokens_max + 1))
        stretch = 1.0 + rng.uniform(-spec.frames_jitter, spec.frames_jitter)
        seg = int(round(seg_base * stretch))
        if seg * n < 4 * (n + 1):  # infeasible for CTC after 4x downsampling
            continue
        tokens = _sample_tokens(spec, n, rng)
        if spec.seg_jitter > 0:
            w = 1.0 + rng.uniform(-spec.seg_jitter, spec.seg_jitter, n)
            segs = _apportion(n * seg, w)
        else:
            segs = np.full(n, seg)
        # with grading enabled, the warp intensity follows the squeeze:
        # the most time-compressed utterances carry the full channel and
        # tempo distortion, the most stretched ones stay source-like
        if spec.warp_length_grading > 0 and spec.frames_jitter > 0:
            squeeze = np.clip((1.0 + spec.frames_jitter - stretch)
                              / (2.0 * spec.frames_jitter), 0.0, 1.0)
            intensity = (1.0 - spec.warp_length_grading) + spec.warp_length_grading * squeeze
        else:
            intensity = 1.0
        tempo_u = 1.0 + (spec.tempo - 1.0) * intensity
        shift_u = shift * intensity
        scale_u = 1.0 + (scale - 1.0) * intensity
        rows = [
            _render_segment(proto, int(t) - FIRST_TOKEN_ID, s, tempo_u)
            for t, s in zip(tokens, segs)
        ]
        feats = np.concatenate(rows, axis=0) * scale_u[None, :] + shift_u[None, :]
        if spec.noise_std > 0:
            feats = feats + rng.normal(0.0, spec.noise_std, feats.shape)
        return feats, tokens
    raise RuntimeError(
        f"generate: could not draw a feasible utterance for domain {spec.domain} "
        f"(mean_frames {spec.mean_frames}, tokens {spec.tokens_min}..{spec.tokens_max})"
    )


def generate(spec, counts):
    """Generate a corpus, deterministic in (spec, counts)."""
    if any(int(c) <= 0 for c in counts.values()):
        raise ValueError("generate: split counts must be positive")
    proto = _prototypes(spec)
    shift, scale = spec.channel_arrays()
    rng = np.random.default_rng(spec.seed)
    order = [s for s in SPLIT_ORDER if s in counts] + sorted(set(counts) - set(SPLIT_ORDER))
    splits = {}
    for split in order:
        utts = []
        for i in range(int(counts[split])):
            feats, tokens = _gen_utterance(spec, proto, shift, scale, rng)
            uid = f"{spec.domain}-{split}-{i:05d}"
            utts.append(Utterance(uid, spec.domain, split, feats, tokens))
        splits[split] = utts
    return Corpus(spec.domain, spec.vocab_size, spec.feat_dim, splits, spec.to_json())


def default_domain_pair(feat_dim=16, vocab_tokens=10, source_seed=11, target_seed=12):
    """Source (long, clean) and target (short, warped channels) specs.

    The target holds isolated tokens with widely spread durations and a
    squeeze-graded distortion: its shortest utterances traverse the
    prototypes twice as fast under a strong per-channel affine warp,
    while its longest ones stay close to source conditions. That yields
    both the roughly 10:1 mean length mismatch and a domain gap that is
    concentrated on the shorter target utterances.
    """
    source = DomainSpec(
        domain="source", feat_dim=feat_dim, vocab_tokens=vocab_tokens,
        mean_frames=120.0, frames_jitter=0.1, tokens_min=4, tokens_max=8,
        tempo=1.0, noise_std=0.05,
        grammar_seed=1234, seed=source_seed,
    )
    f = np.arange(feat_dim)
    shift = 0.8 * np.cos(2 * np.pi * f / feat_dim)
    scale = 0.6 + 0.45 * np.sin(2 * np.pi * f / feat_dim + 1.0)
    target = DomainSpec(
        domain="target", feat_dim=feat_dim, vocab_tokens=vocab_tokens,
        mean_frames=12.0, frames_jitter=0.5, tokens_min=1, tokens_max=1,
        tempo=2.0, noise_std=0.1,
        channel_shift=tuple(shift), channel_scale=tuple(scale),
        warp_length_grading=1.0,
        grammar_seed=1234, seed=target_seed,
    )
    return source, target


def median_split(utterances):
    """Partition at the median duration; ties go to the shorter half."""
    if not utterances:
        raise ValueError("median_split: empty utterance list")
    med = float(np.median([u.duration for u in utterances]))
    shorter = [u for u in utterances if u.duration <= med]
    longer = [u for u in utterances if u.duration > med]
    return shorter, longer


# ---------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------


@dataclass
class Batch:
    features: np.ndarray
    feat_lens: np.ndarray
    tokens_in: np.ndarray
    token_seqs: list

    @property
    def size(self):
        return len(self.token_seqs)


def make_batch(utterances):
    if not utterances:
        raise ValueError("make_batch: empty batch")
    b = len(utterances)
    t_max = max(u.duration for u in utterances)
    f = utterances[0].features.shape[1]
    feats = np.zeros((b, t_max, f))
    lens = np.zeros(b, dtype=np.int64)
    l_max = max(len(u.tokens) for u in utterances)
    tokens_in = np.full((b, l_max + 1), EOS_ID, dtype=np.int64)
    tokens_in[:, 0] = SOS_ID
    seqs = []
    for i, u in enumerate(utterances):
        feats[i, : u.duration] = u.features
        lens[i] = u.duration
        tokens_in[i, 1 : 1 + len(u.tokens)] = u.tokens
        seqs.append(u.tokens)
    return Batch(feats, lens, tokens_in, seqs)


def iter_batches(utterances, batch_size, rng):
    """Yield batches of ``batch_size`` utterances (the last may be smaller)
    in an order that ``rng`` shuffles, so the same generator state gives
    the same batches."""
    order = np.arange(len(utterances))
    rng.shuffle(order)
    for i in range(0, len(order), batch_size):
        yield make_batch([utterances[j] for j in order[i : i + batch_size]])
