"""Synthetic transducer models with instrumented, frame-batched joiner calls.

The joiner is the expensive part of transducer inference, so every model
counts its invocations through :class:`JoinerCounters`: one batched call
covers any number of predictor states over a contiguous frame range and
increments ``calls`` by one, while ``frame_joins`` grows by the number of
frames in the range. Decoding strategies are compared on these counters.

Two model families are provided. ``seeded`` models derive every joiner cell
from a 64-bit hash of (seed, utterance, consumed prefix, frame), so they are
reproducible, order-sensitive in the prefix, and need no stored weights.
``tabular`` models read raw logits from an explicit table and key predictor
states by prefix length only.
"""

from __future__ import annotations

import hashlib
import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple, Optional, Sequence

import numpy as np

from .logmath import LOG_ONE, LOG_ZERO, log_normalize


class ModelFormatError(ValueError):
    """Raised for malformed model specs, files, or payloads."""


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_INIT_SALT = 0x1B873593C2B2AE35
_TOKEN_SALT = 0xA24BAED4963EE407
_FRAME_SALT = 0x9FB21C651E98DF25
_SYMBOL_SALT = 0xD6E8FEB86659FD93
_DEPTH_SALT = 0x2545F4914F6CDD1D
_GATE_SALT = 0x6C62272E07BB0142
_SPIKE_SALT = 0x27220A95FE7B8D21
_SLOT_SALT = 0x5851F42D4C957F2D

_BLANK_GATE_SPREAD = 6.0
_TOKEN_JITTER = 2.0
_PREFERRED_BOOST = 3.0
_CATCHUP_PULL = 4.0
DEFAULT_BLANK_PRIOR = 0.85


def _mix64(value: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    value = (value + _GOLDEN) & _MASK64
    value = ((value ^ (value >> 30)) * _MIX1) & _MASK64
    value = ((value ^ (value >> 27)) * _MIX2) & _MASK64
    return value ^ (value >> 31)


def _mix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_mix64` over a uint64 array (wrapping arithmetic)."""
    out = values + np.uint64(_GOLDEN)
    out = (out ^ (out >> np.uint64(30))) * np.uint64(_MIX1)
    out = (out ^ (out >> np.uint64(27))) * np.uint64(_MIX2)
    return out ^ (out >> np.uint64(31))


def _string_key(text: str) -> int:
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class Vocabulary:
    """Token inventory. Non-blank ids are ``0..size-1``; blank is ``size``.

    Blank is not a real token: it never appears in emitted sequences, only
    as the extra final column of a lattice row.
    """

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("vocabulary needs at least one non-blank token")

    @property
    def blank_id(self) -> int:
        return self.size

    @property
    def num_symbols(self) -> int:
        """Width of a lattice row: all tokens plus blank."""
        return self.size + 1


@dataclass(frozen=True)
class EncoderOutput:
    """Precomputed encoder frames for one utterance.

    ``payload`` carries model-specific per-utterance precomputation and
    takes no part in equality.
    """

    frames: int
    handle: int = 0
    uid: str = ""
    payload: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.frames < 0:
            raise ValueError("frame count cannot be negative")


@dataclass(frozen=True)
class PredictorState:
    """Opaque predictor handle; a pure function of the consumed prefix."""

    key: int
    depth: int


@dataclass
class JoinerCounters:
    """Joiner cost accounting for one decode (or a pool of decodes)."""

    calls: int = 0
    frame_joins: int = 0
    frames_decoded: int = 0
    forced_finalizations: int = 0

    def record_call(self, frames_in_call: int) -> None:
        if frames_in_call < 1:
            raise ValueError("a joiner call must cover at least one frame")
        self.calls += 1
        self.frame_joins += frames_in_call

    def merge(self, other: "JoinerCounters") -> None:
        self.calls += other.calls
        self.frame_joins += other.frame_joins
        self.frames_decoded += other.frames_decoded
        self.forced_finalizations += other.forced_finalizations


@dataclass(frozen=True)
class ModelSpec:
    """Serializable description of a synthetic model."""

    kind: str
    vocab_size: int
    frames: int
    seed: Optional[int] = None
    blank_prior: Optional[float] = None
    payload: Optional[list] = None

    def __post_init__(self) -> None:
        if self.kind not in ("seeded", "tabular"):
            raise ModelFormatError(f"unknown model kind: {self.kind!r}")
        if self.vocab_size < 1:
            raise ModelFormatError("vocab_size must be positive")
        if self.frames < 0:
            raise ModelFormatError("frames cannot be negative")
        if self.kind == "seeded" and self.seed is None:
            raise ModelFormatError("seeded model needs a seed")
        if self.kind == "tabular" and self.payload is None:
            raise ModelFormatError("tabular model needs a payload")
        if self.blank_prior is not None and not (0.0 < self.blank_prior < 1.0):
            raise ModelFormatError("blank_prior must lie strictly between 0 and 1")

    def to_dict(self) -> dict:
        out: dict = {
            "kind": self.kind,
            "vocab_size": self.vocab_size,
            "frames": self.frames,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.blank_prior is not None:
            out["blank_prior"] = self.blank_prior
        if self.payload is not None:
            out["payload"] = self.payload
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ModelSpec":
        if not isinstance(data, dict):
            raise ModelFormatError("model spec must be a JSON object")
        known = {"kind", "vocab_size", "frames", "seed", "blank_prior", "payload"}
        unknown = set(data) - known
        if unknown:
            raise ModelFormatError(f"unknown model spec fields: {sorted(unknown)}")
        # JSON true and false load as bool, a subclass of int, so both checks exclude bool.
        for name in ("vocab_size", "frames", "seed"):
            value = data.get(name, 0)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ModelFormatError(f"{name} must be an integer")
        prior = data.get("blank_prior", 0.0)
        if not isinstance(prior, (int, float)) or isinstance(prior, bool):
            raise ModelFormatError("blank_prior must be a number")
        for kind, name in (("seeded", "payload"), ("tabular", "seed"), ("tabular", "blank_prior")):
            if data.get("kind") == kind and name in data:
                raise ModelFormatError(f"a {kind} model takes no {name}")
        try:
            return cls(
                kind=data["kind"],
                vocab_size=data["vocab_size"],
                frames=data["frames"],
                seed=data.get("seed"),
                blank_prior=float(prior) if "blank_prior" in data else None,
                payload=data.get("payload"),
            )
        except KeyError as exc:
            raise ModelFormatError(f"model spec is missing field {exc}") from exc


class TransducerModel(ABC):
    """Encoder, predictor, and joiner triple with deterministic weights."""

    vocab: Vocabulary

    @abstractmethod
    def encode(self, frames: Optional[int] = None, uid: str = "") -> EncoderOutput:
        """Build the encoder output for an utterance of ``frames`` frames."""

    @abstractmethod
    def init_predictor(self) -> PredictorState:
        """State after consuming the empty prefix."""

    @abstractmethod
    def advance_predictor(self, state: PredictorState, token: int) -> PredictorState:
        """State after appending one non-blank token to the prefix."""

    @abstractmethod
    def _segment_scores(
        self,
        encoder: EncoderOutput,
        t_begin: int,
        t_end: int,
        states: Sequence[PredictorState],
    ) -> np.ndarray:
        """Raw (states, frames, symbols) grid of normalized log-probabilities."""

    def join(
        self,
        encoder: EncoderOutput,
        frame_range: tuple[int, int],
        states: Sequence[PredictorState],
        counters: JoinerCounters,
    ) -> np.ndarray:
        """One batched joiner invocation over ``frame_range`` for all states.

        Returns the (states, frames, symbols) grid of log-probabilities,
        blank in the last column, as a C-contiguous float64 array. Counts as
        a single call no matter how many states are batched; the per-frame
        cost driver is tracked separately in ``frame_joins``.
        """
        t_begin, t_end = int(frame_range[0]), int(frame_range[1])
        states = list(states)
        if not states:
            raise ValueError("join requires at least one predictor state")
        if not (0 <= t_begin < t_end <= encoder.frames):
            raise ValueError(
                f"frame range [{t_begin}, {t_end}) outside encoder length {encoder.frames}"
            )
        grid = np.ascontiguousarray(
            self._segment_scores(encoder, t_begin, t_end, states), dtype=np.float64
        )
        expected = (len(states), t_end - t_begin, self.vocab.num_symbols)
        if grid.shape != expected:
            raise ValueError(f"joiner returned a grid of shape {grid.shape}, expected {expected}")
        counters.record_call(t_end - t_begin)
        return grid

    def _check_token(self, token: int) -> int:
        token = int(token)
        if not (0 <= token < self.vocab.size):
            raise ValueError(
                f"token {token} outside vocabulary of size {self.vocab.size}"
                " (blank cannot be consumed by the predictor)"
            )
        return token


def _index_hashes(count: int) -> tuple[np.ndarray, ...]:
    """Utterance-independent hashes of the indices ``0..count-1``.

    Index ``i`` is frame ``i`` and depth ``i`` at once. Returns the ids, the
    inner spike and slot hashes, and the depth keys of the seeded joiner.
    """
    ids = np.arange(count, dtype=np.uint64)
    return (
        ids,
        _mix64_array(ids + np.uint64(_SPIKE_SALT)),
        _mix64_array(ids + np.uint64(_SLOT_SALT)),
        _mix64_array(ids + np.uint64(_DEPTH_SALT)),
    )


class SeededTables(NamedTuple):
    """What :meth:`SeededModel.encode` precomputes for one utterance.

    ``demanded[t]`` is how many tokens the script demands by frame ``t``,
    ``frame_keys[t]`` the frame's hash key, and ``depth_keys[u]`` and
    ``preferred[u]`` the gate key and the preferred token of a state that
    has emitted ``u`` tokens, for ``u`` below ``len(preferred)``.
    """

    demanded: np.ndarray
    frame_keys: np.ndarray
    depth_keys: np.ndarray
    preferred: np.ndarray


class SeededModel(TransducerModel):
    """Hash-seeded joiner: reproducible, prefix-order-sensitive, blank-biased.

    Rows mimic the shape of trained transducer posteriors. Each utterance
    hashes out a latent script: spike frames (density ``1 - blank_prior``)
    each demand one token, and script slot ``u`` names the preferred
    identity of the ``u``-th emission. The blank gate starts from the
    ``blank_prior`` logit, is pulled down while a hypothesis has emitted
    fewer tokens than the spikes passed so far demand and pushed up once it
    is ahead, and carries per-(frame, prefix length) noise so emission
    timing stays ambiguous. The preferred token for the next slot gets a
    fixed logit boost over jittered alternatives; that jitter is hashed
    from the full predictor state, keeping the joiner order-sensitive in
    the consumed prefix. Rows sum to one by construction.
    """

    def __init__(
        self,
        vocab_size: int,
        frames: int,
        seed: int,
        blank_prior: Optional[float] = None,
    ) -> None:
        self.vocab = Vocabulary(vocab_size)
        self.frames = int(frames)
        self.seed = int(seed)
        self.blank_prior = DEFAULT_BLANK_PRIOR if blank_prior is None else float(blank_prior)
        if not (0.0 < self.blank_prior < 1.0):
            raise ModelFormatError("blank_prior must lie strictly between 0 and 1")
        self._seed_key = _mix64(self.seed & _MASK64)
        self._prior_logit = math.log(self.blank_prior / (1.0 - self.blank_prior))
        self._lanes = np.arange(1, vocab_size + 1, dtype=np.uint64) * np.uint64(_SYMBOL_SALT)
        self._token_ids = np.arange(vocab_size)
        self._indices = _index_hashes(self.frames)

    def encode(self, frames: Optional[int] = None, uid: str = "") -> EncoderOutput:
        frames = self.frames if frames is None else int(frames)
        if frames < 0:
            raise ValueError("frame count cannot be negative")
        handle = _mix64(self._seed_key ^ _string_key(uid))
        return EncoderOutput(
            frames=frames, handle=handle, uid=uid, payload=self._tables(handle, frames)
        )

    def _tables(self, handle: int, frames: int) -> SeededTables:
        """Every joiner term that depends on the frame alone or the depth alone.

        These stand in for a network's encoder and predictor projections.
        The depth table covers depths ``0..frames-1``; deeper states are
        hashed from scratch by :meth:`_depth_terms` at join time.
        """
        if len(self._indices[0]) < frames:
            self._indices = _index_hashes(frames)
        ids, spike_pre, slot_pre, depth_keys = (hashes[:frames] for hashes in self._indices)
        key = np.uint64(handle)
        spike_unit = (_mix64_array(key ^ spike_pre) >> np.uint64(11)).astype(np.float64) * (
            2.0 ** -53
        )
        return SeededTables(
            demanded=np.cumsum(spike_unit < (1.0 - self.blank_prior)).astype(np.int64),
            frame_keys=_mix64_array(key ^ (ids + np.uint64(_FRAME_SALT))),
            depth_keys=depth_keys,
            preferred=(_mix64_array(key ^ slot_pre) % np.uint64(self.vocab.size)).astype(
                np.int64
            ),
        )

    def _depth_terms(self, handle: int, depths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per depth, hashed from scratch: the gate's depth key and the preferred token."""
        depths = depths.astype(np.uint64)
        depth_keys = _mix64_array(depths + np.uint64(_DEPTH_SALT))
        slot_keys = _mix64_array(
            np.uint64(handle) ^ _mix64_array(depths + np.uint64(_SLOT_SALT))
        )
        return depth_keys, (slot_keys % np.uint64(self.vocab.size)).astype(np.int64)

    def init_predictor(self) -> PredictorState:
        return PredictorState(key=_mix64(self._seed_key ^ _INIT_SALT), depth=0)

    def advance_predictor(self, state: PredictorState, token: int) -> PredictorState:
        token = self._check_token(token)
        key = _mix64(state.key ^ _mix64((_TOKEN_SALT + token) & _MASK64))
        return PredictorState(key=key, depth=state.depth + 1)

    def _segment_scores(self, encoder, t_begin, t_end, states):
        tables = encoder.payload
        if not isinstance(tables, SeededTables):
            raise ValueError(
                "encoder output carries no seeded tables; build it with SeededModel.encode"
            )
        depths = np.array([s.depth for s in states], dtype=np.int64)
        frame_keys = tables.frame_keys[t_begin:t_end]
        demanded = tables.demanded[t_begin:t_end]
        if depths.max() < len(tables.preferred):
            depth_keys = tables.depth_keys[depths]
            preferred = tables.preferred[depths]
        else:
            depth_keys, preferred = self._depth_terms(encoder.handle, depths)

        acoustic = _mix64_array(depth_keys[:, None] ^ frame_keys[None, :])
        gate_unit = (
            (_mix64_array(acoustic ^ np.uint64(_GATE_SALT)) >> np.uint64(11)).astype(np.float64)
            * (2.0 ** -53)
        )
        owed = demanded[None, :] - depths[:, None]
        gate = (
            self._prior_logit
            + _BLANK_GATE_SPREAD * (gate_unit - 0.5)
            - _CATCHUP_PULL * owed
        )
        log_blank = -np.logaddexp(0.0, -gate)
        log_nonblank = -np.logaddexp(0.0, gate)

        state_keys = np.array([s.key for s in states], dtype=np.uint64)
        context = _mix64_array(state_keys[:, None] ^ frame_keys[None, :])
        jitter_unit = (
            (
                _mix64_array(context[:, :, None] ^ self._lanes[None, None, :])
                >> np.uint64(11)
            ).astype(np.float64)
            * (2.0 ** -53)
        )
        token_logits = _TOKEN_JITTER * jitter_unit
        token_logits += _PREFERRED_BOOST * (
            self._token_ids[None, None, :] == preferred[:, None, None]
        )
        log_tokens = log_normalize(token_logits, axis=-1) + log_nonblank[:, :, None]
        return np.concatenate([log_tokens, log_blank[:, :, None]], axis=2)


class TabularModel(TransducerModel):
    """Joiner outputs read from an explicit raw-logit table.

    ``payload[t][u][k]`` holds the raw logit for symbol ``k`` at frame ``t``
    given a prefix of length ``u``; rows are log-normalized at join time.
    Predictor states are keyed by prefix length only, and prefixes deeper
    than the table reuse its last row.
    """

    def __init__(self, vocab_size: int, payload: Sequence) -> None:
        self.vocab = Vocabulary(vocab_size)
        try:
            table = np.asarray(payload, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(f"payload is not a rectangular numeric table: {exc}") from exc
        if table.ndim != 3:
            raise ModelFormatError("payload must be nested as frames x prefixes x symbols")
        if table.shape[2] != self.vocab.num_symbols:
            raise ModelFormatError(
                f"payload rows have {table.shape[2]} symbols, expected {self.vocab.num_symbols}"
            )
        if table.shape[1] < 1:
            raise ModelFormatError("payload needs at least one prefix row per frame")
        if np.isnan(table).any() or np.isposinf(table).any():
            raise ModelFormatError("payload logits must be finite or -inf")
        if (table.max(axis=2) == LOG_ZERO).any():
            raise ModelFormatError("payload contains a row with no finite logit")
        table.setflags(write=False)
        self._table = table
        self.frames = table.shape[0]

    def encode(self, frames: Optional[int] = None, uid: str = "") -> EncoderOutput:
        frames = self.frames if frames is None else int(frames)
        if not (0 <= frames <= self.frames):
            raise ValueError(
                f"tabular model holds {self.frames} frames, cannot encode {frames}"
            )
        return EncoderOutput(frames=frames, handle=0, uid=uid)

    def init_predictor(self) -> PredictorState:
        return PredictorState(key=0, depth=0)

    def advance_predictor(self, state: PredictorState, token: int) -> PredictorState:
        self._check_token(token)
        return PredictorState(key=state.depth + 1, depth=state.depth + 1)

    def _segment_scores(self, encoder, t_begin, t_end, states):
        depth_rows = self._table.shape[1]
        rows = [min(s.depth, depth_rows - 1) for s in states]
        block = self._table[t_begin:t_end, rows, :]
        return log_normalize(np.transpose(block, (1, 0, 2)), axis=-1)


class TokenCapModel(TransducerModel):
    """Wrapper that makes states at ``cap`` or more emitted tokens blank-certain.

    Bounds hypothesis length so unbounded-beam decodes and exhaustive
    enumeration terminate. In-memory only; it has no serialized form.
    """

    def __init__(self, inner: TransducerModel, cap: int) -> None:
        if cap < 1:
            raise ValueError("token cap must be positive")
        self.inner = inner
        self.cap = int(cap)
        self.vocab = inner.vocab

    def encode(self, frames: Optional[int] = None, uid: str = "") -> EncoderOutput:
        return self.inner.encode(frames, uid)

    def init_predictor(self) -> PredictorState:
        return self.inner.init_predictor()

    def advance_predictor(self, state: PredictorState, token: int) -> PredictorState:
        return self.inner.advance_predictor(state, token)

    def _segment_scores(self, encoder, t_begin, t_end, states):
        grid = np.array(self.inner._segment_scores(encoder, t_begin, t_end, states))
        for i, state in enumerate(states):
            if state.depth >= self.cap:
                grid[i, :, :-1] = LOG_ZERO
                grid[i, :, -1] = LOG_ONE
        return grid


def load_model(spec: ModelSpec) -> TransducerModel:
    """Construct the model a spec describes."""
    if spec.kind == "seeded":
        return SeededModel(
            vocab_size=spec.vocab_size,
            frames=spec.frames,
            seed=spec.seed,
            blank_prior=spec.blank_prior,
        )
    if spec.kind == "tabular":
        model = TabularModel(vocab_size=spec.vocab_size, payload=spec.payload)
        if model.frames != spec.frames:
            raise ModelFormatError(
                f"payload holds {model.frames} frames but spec declares {spec.frames}"
            )
        return model
    raise ModelFormatError(f"unknown model kind: {spec.kind!r}")


def read_model_spec(path: str | Path) -> ModelSpec:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file {path} is not valid JSON: {exc}") from exc
    return ModelSpec.from_dict(data)


def write_text_file(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8, creating missing parent directories first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_model_spec(spec: ModelSpec, path: str | Path) -> None:
    write_text_file(path, json.dumps(spec.to_dict(), sort_keys=True, indent=2) + "\n")


def load_model_file(path: str | Path) -> TransducerModel:
    return load_model(read_model_spec(path))
