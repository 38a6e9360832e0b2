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

import json
import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, NamedTuple, Optional, Sequence

# The same object as ``hashlib.blake2b``: hashlib never hands BLAKE2 to
# OpenSSL, and importing hashlib would load libcrypto (+3.5 MB RSS, about
# 3 ms of import) for nothing.
from _blake2 import blake2b

import numpy as np

from .logmath import LOG_ONE, LOG_ZERO, log_normalize, log_sum_exp


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


# numpy forms of the constants the array hashes use, made once at import.
_NP_GOLDEN, _NP_MIX1, _NP_MIX2 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_NP_SHIFT30, _NP_SHIFT27, _NP_SHIFT31 = np.uint64(30), np.uint64(27), np.uint64(31)
_NP_GATE_SALT = np.uint64(_GATE_SALT)
_UNIT_SHIFT = np.uint64(11)


def _mix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_mix64` over a uint64 array (wrapping arithmetic).

    The first add makes the one new array; every later step runs in place
    on it, so ``values`` is left as it was.
    """
    out = values + _NP_GOLDEN
    out ^= out >> _NP_SHIFT30
    out *= _NP_MIX1
    out ^= out >> _NP_SHIFT27
    out *= _NP_MIX2
    out ^= out >> _NP_SHIFT31
    return out


# numpy refuses a table near 2**63 bytes with a ValueError of its own, and its
# uint64 arange returns an empty array from 2**63 - 1 entries. No host holds
# even 2**62 bytes, so a table that large is refused as too large for memory.
_MAX_TABLE_BYTES = 2**62


def _check_table_size(entries: int) -> None:
    """Raise ``MemoryError`` for a table of ``entries`` 8-byte values too large to hold."""
    if entries * 8 >= _MAX_TABLE_BYTES:
        raise MemoryError(f"a table of {entries} 8-byte entries needs {entries * 8} bytes")


def _string_key(text: str) -> int:
    digest = blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class Vocabulary:
    """Token inventory. Non-blank ids are ``0..size-1``; blank is ``size``.

    Blank is not a real token: it never appears in emitted sequences, only
    as the extra final column of a grid row.
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
        """Width of a grid row: all tokens plus blank."""
        return self.size + 1


@dataclass(frozen=True)
class EncoderOutput:
    """Precomputed encoder frames for one utterance.

    ``payload`` carries model-specific per-utterance precomputation and
    takes no part in equality.
    """

    frames: int
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

    def merge(self, other: "JoinerCounters") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class TransducerModel(ABC):
    """Encoder, predictor, and joiner triple with deterministic weights."""

    vocab: Vocabulary
    # The most frames ``encode`` accepts; ``None`` when any length is accepted.
    max_frames: Optional[int] = None

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
        counters.calls += 1
        counters.frame_joins += t_end - t_begin
        return grid

    def _check_token(self, token: int) -> int:
        token = int(token)
        if not (0 <= token < self.vocab.size):
            raise ValueError(
                f"token {token} outside vocabulary of size {self.vocab.size}"
                " (blank cannot be consumed by the predictor)"
            )
        return token


class SeededTables(NamedTuple):
    """What :meth:`SeededModel.encode` precomputes for one utterance.

    ``handle`` is the utterance's hash key, ``demanded[t]`` how many tokens
    the script demands by frame ``t``, ``frame_keys[t]`` the frame's hash
    key, and ``depth_keys[u]`` and ``preferred[u]`` the gate key and the
    preferred token of a state that has emitted ``u`` tokens, for ``u``
    below ``len(preferred)``.
    """

    handle: int
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
        prior = DEFAULT_BLANK_PRIOR if blank_prior is None else blank_prior
        # Checked before float(), which overflows on a JSON integer beyond float range.
        if not (0.0 < prior < 1.0):
            raise ValueError("blank_prior must lie strictly between 0 and 1")
        self.blank_prior = float(prior)
        self._seed_key = _mix64(self.seed & _MASK64)
        self._prior_logit = math.log(self.blank_prior / (1.0 - self.blank_prior))
        _check_table_size(vocab_size)
        self._lanes = np.arange(1, vocab_size + 1, dtype=np.uint64) * np.uint64(_SYMBOL_SALT)

    def encode(self, frames: Optional[int] = None, uid: str = "") -> EncoderOutput:
        frames = self.frames if frames is None else int(frames)
        handle = _mix64(self._seed_key ^ _string_key(uid))
        return EncoderOutput(frames=frames, uid=uid, payload=self._tables(handle, frames))

    def _tables(self, handle: int, frames: int) -> SeededTables:
        """Every joiner term that depends on the frame alone or the depth alone.

        These stand in for a network's encoder and predictor projections.
        The depth table is :meth:`_depth_terms` at depths ``0..frames-1``;
        join evaluates it afresh for deeper states.
        """
        _check_table_size(frames)
        ids = np.arange(frames, dtype=np.uint64)
        key = np.uint64(handle)
        spike_unit = (
            _mix64_array(key ^ _mix64_array(ids + np.uint64(_SPIKE_SALT))) >> _UNIT_SHIFT
        ).astype(np.float64) * (2.0 ** -53)
        depth_keys, preferred = self._depth_terms(handle, ids)
        return SeededTables(
            handle=handle,
            demanded=np.cumsum(spike_unit < (1.0 - self.blank_prior)).astype(np.int64),
            frame_keys=_mix64_array(key ^ (ids + np.uint64(_FRAME_SALT))),
            depth_keys=depth_keys,
            preferred=preferred,
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
        """The grid in a fixed number of array passes, whatever its shape.

        The depth keys and the state keys are hashed against the frame keys
        in one mix over a stacked (2·states, frames) array: the first half
        gives each cell's acoustic key, the second its context key. One
        more mix covers a (states, frames, vocab+1) lane array whose token
        lanes are the context key xor each token's salt and whose last lane
        is the acoustic key xor the gate salt; its unit floats are the token
        jitter and the blank gate. Token and blank columns are written into
        one preallocated grid.
        """
        tables = encoder.payload
        if not isinstance(tables, SeededTables):
            raise ValueError(
                "encoder output carries no seeded tables; build it with SeededModel.encode"
            )
        count = len(states)
        depths = np.array([s.depth for s in states], dtype=np.int64)
        frame_keys = tables.frame_keys[t_begin:t_end]
        demanded = tables.demanded[t_begin:t_end]
        if depths.max() < len(tables.preferred):
            depth_keys = tables.depth_keys[depths]
            preferred = tables.preferred[depths]
        else:
            depth_keys, preferred = self._depth_terms(tables.handle, depths)

        keys = np.empty(2 * count, dtype=np.uint64)
        keys[:count] = depth_keys
        keys[count:] = [s.key for s in states]
        mixed = _mix64_array(keys[:, None] ^ frame_keys[None, :])
        acoustic, context = mixed[:count], mixed[count:]
        lanes = np.empty((count, len(frame_keys), self.vocab.num_symbols), dtype=np.uint64)
        np.bitwise_xor(context[:, :, None], self._lanes, out=lanes[:, :, :-1])
        np.bitwise_xor(acoustic, _NP_GATE_SALT, out=lanes[:, :, -1])
        lanes = _mix64_array(lanes)
        lanes >>= _UNIT_SHIFT
        units = np.multiply(lanes, 2.0 ** -53)

        owed = demanded[None, :] - depths[:, None]
        gate = (
            self._prior_logit
            + _BLANK_GATE_SPREAD * (units[:, :, -1] - 0.5)
            - _CATCHUP_PULL * owed
        )
        token_logits = _TOKEN_JITTER * units[:, :, :-1]
        # Jitter is never negative, so adding the boost only where it applies
        # equals adding a boost of zero everywhere else.
        token_logits[np.arange(count), :, preferred] += _PREFERRED_BOOST
        grid = np.empty(units.shape)
        log_tokens = np.subtract(token_logits, log_sum_exp(token_logits, -1), out=grid[:, :, :-1])
        # Adds log P(non-blank) = -logaddexp(0, gate); x - y is x + (-y) exactly.
        log_tokens -= np.logaddexp(0.0, gate)[:, :, None]
        np.negative(np.logaddexp(0.0, -gate), out=grid[:, :, -1])
        return grid


class TabularModel(TransducerModel):
    """Joiner outputs read from an explicit raw-logit table.

    ``payload[t][u][k]`` holds the raw logit for symbol ``k`` at frame ``t``
    given a prefix of length ``u``; rows are log-normalized once, at load.
    Predictor states are keyed by prefix length only, and prefixes deeper
    than the table reuse its last row.
    """

    def __init__(self, vocab_size: int, payload: Sequence) -> None:
        self.vocab = Vocabulary(vocab_size)
        try:
            table = np.asarray(payload, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"payload is not a rectangular numeric table: {exc}") from exc
        if table.ndim != 3:
            raise ValueError("payload must be nested as frames x prefixes x symbols")
        if table.shape[2] != self.vocab.num_symbols:
            raise ValueError(
                f"payload rows have {table.shape[2]} symbols, expected {self.vocab.num_symbols}"
            )
        if table.shape[1] < 1:
            raise ValueError("payload needs at least one prefix row per frame")
        if np.isnan(table).any() or np.isposinf(table).any():
            raise ValueError("payload logits must be finite or -inf")
        if (table.max(axis=2) == LOG_ZERO).any():
            raise ValueError("payload contains a row with no finite logit")
        self._table = log_normalize(table, axis=-1)
        self._table.setflags(write=False)
        self.frames = self.max_frames = table.shape[0]

    def encode(self, frames: Optional[int] = None, uid: str = "") -> EncoderOutput:
        frames = self.frames if frames is None else int(frames)
        if not (0 <= frames <= self.frames):
            raise ValueError(
                f"tabular model holds {self.frames} frames, cannot encode {frames}"
            )
        return EncoderOutput(frames=frames, uid=uid)

    def init_predictor(self) -> PredictorState:
        return PredictorState(key=0, depth=0)

    def advance_predictor(self, state: PredictorState, token: int) -> PredictorState:
        self._check_token(token)
        return PredictorState(key=state.depth + 1, depth=state.depth + 1)

    def _segment_scores(self, encoder, t_begin, t_end, states):
        depth_rows = self._table.shape[1]
        rows = [min(s.depth, depth_rows - 1) for s in states]
        return np.transpose(self._table[t_begin:t_end, rows, :], (1, 0, 2))


class TokenCapModel(TransducerModel):
    """Wrapper that makes states at ``cap`` or more emitted tokens blank-certain.

    Bounds hypothesis length so unbounded-beam decodes and exhaustive
    enumeration terminate. In-memory only; it has no serialized form.
    """

    def __init__(self, inner: TransducerModel, cap: int) -> None:
        if not isinstance(cap, numbers.Integral):
            raise ValueError("token cap must be an integer")
        if cap < 1:
            raise ValueError("token cap must be positive")
        self.inner = inner
        self.cap = int(cap)
        self.vocab = inner.vocab
        self.max_frames = inner.max_frames

    def encode(self, frames: Optional[int] = None, uid: str = "") -> EncoderOutput:
        return self.inner.encode(frames, uid)

    def init_predictor(self) -> PredictorState:
        return self.inner.init_predictor()

    def advance_predictor(self, state: PredictorState, token: int) -> PredictorState:
        return self.inner.advance_predictor(state, token)

    def _segment_scores(self, encoder, t_begin, t_end, states):
        grid = np.array(self.inner._segment_scores(encoder, t_begin, t_end, states))
        deep = np.array([state.depth >= self.cap for state in states], dtype=bool)
        grid[deep, :, :-1] = LOG_ZERO
        grid[deep, :, -1] = LOG_ONE
        return grid


def load_model(data: dict) -> TransducerModel:
    """Construct the model a model file's JSON object describes, checking its fields."""
    if not isinstance(data, dict):
        raise ValueError("model spec must be a JSON object")
    unknown = set(data) - {"kind", "vocab_size", "frames", "seed", "blank_prior", "payload"}
    if unknown:
        raise ValueError(f"unknown model spec fields: {sorted(unknown)}")
    # JSON true and false load as bool, a subclass of int, so both checks exclude bool.
    for name in ("vocab_size", "frames", "seed"):
        value = data.get(name, 0)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer")
    prior = data.get("blank_prior", 0.0)
    if not isinstance(prior, (int, float)) or isinstance(prior, bool):
        raise ValueError("blank_prior must be a number")
    kind = data.get("kind")
    for refusing, name in (("seeded", "payload"), ("tabular", "seed"), ("tabular", "blank_prior")):
        if kind == refusing and name in data:
            raise ValueError(f"a {refusing} model takes no {name}")
    for name in ("kind", "vocab_size", "frames"):
        if name not in data:
            raise ValueError(f"model spec is missing field {name!r}")
    if kind not in ("seeded", "tabular"):
        raise ValueError(f"unknown model kind: {kind!r}")
    vocab_size, frames = data["vocab_size"], data["frames"]
    if vocab_size < 1:
        raise ValueError("vocab_size must be positive")
    if frames < 0:
        raise ValueError("frames cannot be negative")
    if kind == "seeded":
        if "seed" not in data:
            raise ValueError("seeded model needs a seed")
        return SeededModel(vocab_size, frames, data["seed"], data.get("blank_prior"))
    payload = data.get("payload")
    if payload is None:
        raise ValueError("tabular model needs a payload")
    entries = [payload]
    while entries:
        entry = entries.pop()
        if isinstance(entry, list):
            entries.extend(entry)
        elif not isinstance(entry, (int, float)) or isinstance(entry, bool):
            raise ValueError("payload entries must be JSON numbers")
    model = TabularModel(vocab_size, payload)
    if model.frames != frames:
        raise ValueError(f"payload holds {model.frames} frames but spec declares {frames}")
    return model


def read_model_spec(path: str | Path) -> dict:
    """The model file's JSON value; :func:`load_model` checks it."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read model file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"model file {path} is not UTF-8 text: {exc.reason}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"model file {path} is not valid JSON: {exc}") from exc


def check_output_path(path: str | Path, *others: str | Path) -> Path:
    """Reject a directory, a path under a non-directory, or one of ``others``' files.

    ``others`` are the command's inputs and other outputs, compared once
    resolved. Nothing is created, so a caller can check every output before
    any work.
    """
    path = Path(path)
    for other in others:
        if Path(other).resolve() == path.resolve():
            raise ValueError(f"output path {path} names the same file as {other}")
    if path.is_dir():
        raise IsADirectoryError(f"output path {path} is a directory")
    parent = path.parent
    while not parent.exists():
        parent = parent.parent
    if not parent.is_dir():
        raise NotADirectoryError(f"output path {path} lies under {parent}, not a directory")
    return path


def write_text_file(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to a checked path, creating missing parent directories."""
    path = check_output_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def load_model_file(path: str | Path) -> TransducerModel:
    return load_model(read_model_spec(path))
