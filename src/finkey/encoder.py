"""Small bidirectional transformer encoder with hand-written backprop.

The encoder is trained from scratch: token embeddings plus fixed sinusoidal
position encodings, then post-norm transformer layers (multi-head
self-attention with additive -inf masking of padded keys, residual,
layer norm, position-wise GELU feed-forward, residual, layer norm).  The
sentence vector is the hidden state at the leading [CLS] position.

Everything is plain numpy; configs can switch from float32 to float64 for
finite-difference gradient checks.  ``forward_batch``/``backward_batch``
run (batch, T) id/mask arrays for any T up to max_len and update their
intermediates in place; ``forward_inference`` runs each row over its real
prefix only, and a pooled forward (heads that read the [CLS] row) cuts the
last layer's queries to two rows.  The README (library layout) says which
of these keep the outputs' bits, and what was measured.

A frozen bag-of-features encoder (``bow_encode``) is also provided as the
untrained counterpart for baseline classifiers.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import sys
from dataclasses import Field, asdict, dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np
import scipy

from .tokenizer import TokenSequence

_LN_EPS = 1e-5
_LENGTH_MULTIPLE = 8  # inference and training cut batches to a multiple of this
_INFERENCE_CHUNK = 256  # rows per forward_batch call in forward_inference
# Query rows a pooled forward keeps in its last layer.  One would do for the
# [CLS] row, but numpy hands a one-row matrix product to BLAS gemv, which
# sums in another order than the gemm of the full forward; with two rows
# every product stays a gemm and the [CLS] row stays bit-identical.
_POOLED_ROWS = 2
_DTYPES = {"float32": np.float32, "float64": np.float64}
_ANNOTATION_TYPES = {"int": "integer", "float": "number", "str": "string"}
_ADMITS = {"integer": numbers.Integral, "number": numbers.Real, "string": str}


def json_type(f: Field) -> tuple[str, bool]:
    """The JSON type of a config dataclass field, ``integer``, ``number``,
    ``string`` or (a nested config) ``object``, and whether it may be null."""
    inner = f.type.removeprefix("Optional[").removesuffix("]")
    return _ANNOTATION_TYPES.get(inner, "object"), inner != f.type


def check_config(config, rules: Callable[[], Iterable[tuple[str, bool, str]]]) -> None:
    """A ValueError for the first field of a config dataclass whose value is
    not of its JSON type, or is a number no finite float can hold, else for
    the first (field, holds, rule) of ``rules()`` that does not hold; each
    starts with the field's name.  A bool is not a number; an int passes as
    a number and is kept as it is, so dicts and checkpoint headers keep
    their bytes."""
    for f in fields(config):
        kind, nullable = json_type(f)
        value = getattr(config, f.name)
        if kind == "object" or (nullable and value is None):
            continue
        if isinstance(value, bool) or not isinstance(value, _ADMITS[kind]):
            raise ValueError(f"{f.name}: expected {'an' if kind == 'integer' else 'a'} {kind}, "
                             f"got {value!r}")
        if kind == "number" and not abs(value) <= sys.float_info.max:  # also NaN
            raise ValueError(f"{f.name}: must be finite")
    for name, holds, rule in rules():
        if not holds:
            raise ValueError(f"{name}: must be {rule}")


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 256
    max_len: int = 128
    dropout_rate: float = 0.1
    dtype: str = "float32"

    def __post_init__(self):
        dims = ("d_model", "n_heads", "n_layers", "d_ff", "max_len")
        check_config(self, lambda: [
            ("vocab_size", self.vocab_size >= 4, ">= 4, the reserved ids"),
            *((name, getattr(self, name) >= 1, ">= 1") for name in dims),
            ("d_model", self.n_heads >= 1 and self.d_model % self.n_heads == 0,
             "divisible by n_heads"),
            ("dropout_rate", 0.0 <= self.dropout_rate < 1.0, "in [0, 1)"),
            ("dtype", self.dtype in _DTYPES, f"one of {sorted(_DTYPES)}"),
        ])

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class LayerParams:
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray


@dataclass
class EncoderParams:
    """All trainable tensors of the encoder."""

    embedding: np.ndarray
    layers: list[LayerParams] = field(default_factory=list)

    @classmethod
    def from_tensors(cls, tensors: Sequence[np.ndarray]) -> "EncoderParams":
        """Tensors in ``named`` order, such as views of a flat buffer."""
        n = len(LayerParams.__dataclass_fields__)
        layers = [LayerParams(*tensors[i : i + n]) for i in range(1, len(tensors), n)]
        return cls(tensors[0], layers)

    def named(self) -> Iterator[tuple[str, np.ndarray]]:
        """Deterministically ordered (name, array) pairs over all tensors."""
        yield "embedding", self.embedding
        for i, lp in enumerate(self.layers):
            for name in lp.__dataclass_fields__:
                yield f"layers.{i}.{name}", getattr(lp, name)


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every encoder tensor, in ``named`` order."""
    d, f = config.d_model, config.d_ff
    ffn = {"w1": (d, f), "b1": (f,), "w2": (f, d)}
    shapes = {"embedding": (config.vocab_size, d)}
    for i in range(config.n_layers):
        for name in LayerParams.__dataclass_fields__:
            shapes[f"layers.{i}.{name}"] = ffn.get(name, (d, d) if name[0] == "w" else (d,))
    return shapes


def split_flat(flat: np.ndarray, shapes: Iterable[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of a 1-D buffer, one per shape; they must fill it."""
    views, pos = [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(flat[pos : pos + n].reshape(shape))
        pos += n
    if pos != flat.size:
        raise ValueError(f"buffer holds {flat.size} values, the shapes need {pos}")
    return views


def _zero_params(config: EncoderConfig) -> EncoderParams:
    shapes = param_shapes(config).values()
    flat = np.zeros(sum(math.prod(s) for s in shapes), config.np_dtype)
    return EncoderParams.from_tensors(split_flat(flat, shapes))


@dataclass(frozen=True)
class PooledOutput:
    """Sentence vector ([CLS] hidden state) plus all per-token vectors."""

    sentence_vec: np.ndarray
    token_vecs: np.ndarray


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)


def init_params(config: EncoderConfig, seed: int) -> EncoderParams:
    """Seed-deterministic initialization, as views of one zeroed buffer.

    Weight matrices are uniform in +-sqrt(6 / (fan_in + fan_out)), drawn in
    ``named`` order; biases stay at zero, layer-norm scales are set to one.
    """
    rng = np.random.default_rng(seed)
    params = _zero_params(config)
    for name, arr in params.named():
        if arr.ndim == 2:
            arr[...] = _xavier(rng, *arr.shape, config.np_dtype)
        elif name.endswith("_g"):
            arr[...] = 1.0
    return params


@lru_cache(maxsize=8)
def sinusoidal_positions(max_len: int, d_model: int, dtype=np.float32) -> np.ndarray:
    """Fixed sin/cos position encodings, shape (max_len, d_model).

    Computed in float64 and cast to ``dtype``; cached per arguments and
    read-only, so a forward pass reads the table without copying it.
    """
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    dim = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (dim // 2) / d_model)
    table = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle)).astype(dtype)
    table.setflags(write=False)
    return table


_UFUNC_MODULE = "scipy.special._special_ufuncs"


def _load_ufunc_module(directory: Path) -> Optional[ModuleType]:
    """scipy's compiled module ``_UFUNC_MODULE``, loaded by its file path in
    ``directory`` and entered in ``sys.modules`` under its own name, or None
    where no file there loads."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"_special_ufuncs{suffix}"
        if not path.is_file():
            continue
        spec = importlib.util.spec_from_file_location(_UFUNC_MODULE, path)
        try:
            module = importlib.util.module_from_spec(spec)
            sys.modules[_UFUNC_MODULE] = module
            spec.loader.exec_module(module)
        except ImportError:
            sys.modules.pop(_UFUNC_MODULE, None)
            continue
        return module
    return None


def _scipy_ufuncs(directory: Path) -> tuple[np.ufunc, np.ufunc]:
    """scipy's ``erf`` and ``expit``, the only two scipy functions finkey
    calls, taken from ``_UFUNC_MODULE`` in ``directory`` (scipy's
    ``special`` directory).

    ``import scipy.special`` would run that package's ``__init__``, which
    loads scipy's array-API layer and about 270 modules more; skipping it
    shortens every process's start-up and shrinks its memory (the README's
    encoder section has the figures).  A module already in ``sys.modules``
    (loaded here or by ``scipy.special``) is reused, and a later
    ``import scipy.special`` reuses the one loaded here, so these are the
    very objects ``scipy.special`` exports.  Where the file or either name
    is missing, they come from ``scipy.special`` itself.
    """
    module = sys.modules.get(_UFUNC_MODULE) or _load_ufunc_module(directory)
    if hasattr(module, "erf") and hasattr(module, "expit"):
        return module.erf, module.expit
    from scipy.special import erf, expit

    return erf, expit


erf, expit = _scipy_ufuncs(Path(scipy.__file__).parent / "special")


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt 2)), built in one new buffer.

    erf runs on |x| / sqrt 2 and the sign of x is put back: scipy's erf is
    exactly odd and IEEE division is sign-symmetric, so the bits are those
    of erf(x / sqrt 2), but erf's branches then follow the magnitudes
    alone, which makes it faster on inputs of mixed sign (README, encoder
    section).
    """
    cdf = np.abs(x)
    cdf /= math.sqrt(2.0)
    erf(cdf, out=cdf)
    np.copysign(cdf, x, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def gelu(x: np.ndarray, return_cdf: bool = False):
    """x * Phi(x); with ``return_cdf`` also Phi(x), which gelu_grad can reuse.

    ``x`` is an array and is left unchanged.  Without ``return_cdf`` the
    product is written over Phi(x), so the result is the one new buffer
    (Phi(x) * x and x * Phi(x) are the same IEEE product).
    """
    cdf = _normal_cdf(x)
    if return_cdf:
        return x * cdf, cdf
    cdf *= x
    return cdf


def gelu_grad(x: np.ndarray, cdf: Optional[np.ndarray] = None) -> np.ndarray:
    """d gelu / dx = Phi(x) + x * phi(x); ``cdf`` is Phi(x) as returned by
    gelu, if already known.

    Built in one new buffer with the operations of
    ``cdf + x * (np.exp((-0.5 * x) * x) / sqrt(2 pi))``, so it gives their
    bits; ``x`` and ``cdf`` are left unchanged.
    """
    if cdf is None:
        cdf = _normal_cdf(x)
    grad = -0.5 * x
    grad *= x
    np.exp(grad, out=grad)
    grad /= math.sqrt(2.0 * math.pi)
    grad *= x
    grad += cdf
    return grad


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    """Layer norm over the last axis; returns (y, (xhat, inv)), x unchanged.

    The same operations as ``x.mean`` and ``x.var`` (sum, divide by n,
    subtract, square, sum, divide by n), without their Python overhead and
    with one fresh buffer per result.  numpy divides its sums by an intp
    count, in float64 for float32 data, and rounds the quotient to float32;
    that is the correctly rounded float32 quotient, so ``/ n`` gives the
    same bits.
    """
    n = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / n
    inv = np.square(xhat).sum(axis=-1, keepdims=True)
    inv /= n
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    y = xhat * g
    y += b
    return y, (xhat, inv)


def _layer_norm_backward(dy: np.ndarray, g: np.ndarray, aux):
    """Gradients (dx, d_g, d_b) of ``_layer_norm``; ``dy`` and ``aux`` are
    left unchanged.

    dx is inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
    dxhat = dy * g, built in place in two buffers; each mean is a sum
    divided by n, as in ``_layer_norm``, so the bits are those of
    ``.mean``.
    """
    xhat, inv = aux
    n = dy.shape[-1]
    lead = tuple(range(dy.ndim - 1))
    prod = dy * xhat
    d_g = prod.sum(axis=lead)
    d_b = dy.sum(axis=lead)
    dx = dy * g
    np.multiply(dx, xhat, out=prod)
    mean_xhat = prod.sum(axis=-1, keepdims=True)
    mean_xhat /= n
    mean = dx.sum(axis=-1, keepdims=True)
    mean /= n
    dx -= mean
    np.multiply(xhat, mean_xhat, out=prod)
    dx -= prod
    dx *= inv
    return dx, d_g, d_b


def _softmax_last(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place: overwrites ``x`` with
    the probabilities and returns it."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _softmax_backward(d_probs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Gradient on the scores of ``_softmax_last``, in place: overwrites
    ``d_probs`` with probs * (d_probs - sum(d_probs * probs)) and returns it."""
    d_probs -= (d_probs * probs).sum(axis=-1, keepdims=True)
    d_probs *= probs
    return d_probs


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _dropout_mask(config: EncoderConfig, batch: int, t: int, rng: np.random.Generator):
    """Inverted-dropout mask for the first ``t`` positions of a batch.

    It is drawn at (batch, max_len, d_model) and then cut to ``t``, so the
    generator advances the same and every position gets the same mask
    whatever ``t`` a batch is cut to.
    """
    dt = config.np_dtype
    keep = rng.random((batch, config.max_len, config.d_model))[:, :t] >= config.dropout_rate
    mask = keep.astype(dt)
    mask /= dt(1.0 - config.dropout_rate)
    return mask


def forward_batch(
    params: EncoderParams,
    config: EncoderConfig,
    ids: np.ndarray,
    attn_mask: np.ndarray,
    *,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
    cache: Optional[dict] = None,
    pooled: bool = False,
) -> np.ndarray:
    """Run the encoder over (batch, T) id/mask arrays, 1 <= T <= max_len.

    Position t gets row t of the position table and, in training, the same
    dropout masks at any T, so cutting padding off the end of a batch
    leaves its real positions' inputs unchanged.
    Returns the final hidden states, shape (batch, T, d_model).  When
    ``cache`` is a dict, the intermediates needed by backward_batch (and the
    per-layer attention probabilities) are recorded into it.

    With ``pooled`` the last layer computes keys and values at all T
    positions and the rest of the layer (queries, attention, output
    projection, layer norms, FFN) over the first min(2, T) positions only;
    those rows equal the full forward's.  Dropout masks are drawn at full
    size and cut, so the generator advances as in the full forward.  The
    result, and the last layer's recorded query-side intermediates, have
    min(2, T) rows; backward_batch runs that layer's row-wise work over
    them and gives the full forward's gradients up to the grouping of its
    sums over positions (README, encoder section).
    """
    ids = np.asarray(ids)
    if ids.ndim != 2 or not 1 <= ids.shape[1] <= config.max_len:
        raise ValueError(f"ids must have shape (batch, T) with 1 <= T <= {config.max_len}")
    if ids.max(initial=0) >= config.vocab_size or ids.min(initial=0) < 0:
        raise ValueError("token id out of range for vocab_size")
    dt = config.np_dtype
    key_real = np.asarray(attn_mask, dtype=bool)
    if key_real.shape != ids.shape:
        raise ValueError("attn_mask shape must match ids")

    t = ids.shape[1]
    use_dropout = training and config.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ValueError("training-mode forward with dropout needs an rng")

    x = params.embedding[ids].astype(dt, copy=False)  # the gather made a copy
    x += sinusoidal_positions(config.max_len, config.d_model, dt)[:t]

    if cache is not None:
        cache["ids"] = ids
        cache["layers"] = []

    scale = 1.0 / math.sqrt(config.d_head)
    # Added to every query's scores: -0.0 at real keys (x + -0.0 == x for
    # every x), -inf at padded ones; skipped when every key is real.
    key_bias = None
    if not key_real.all():
        key_bias = np.where(key_real, dt(-0.0), dt(-np.inf))[:, None, None, :]
    # Without a cache, each intermediate is dropped after its last read, which
    # keeps the peak memory of large inference batches down (README).
    for lp in params.layers:
        k = x @ lp.wk
        k += lp.bk
        v = x @ lp.wv
        v += lp.bv
        rows = min(_POOLED_ROWS, t) if pooled and lp is params.layers[-1] else t
        q = x[:, :rows] @ lp.wq
        q += lp.bq
        qh = _split_heads(q, config.n_heads)
        kh = _split_heads(k, config.n_heads)
        vh = _split_heads(v, config.n_heads)
        scores = qh @ kh.swapaxes(-1, -2)
        scores *= scale
        if key_bias is not None:
            scores += key_bias
        probs = _softmax_last(scores)
        ctx = _merge_heads(probs @ vh)
        if cache is None:
            del q, k, v, qh, kh, vh, scores, probs
        attn = ctx @ lp.wo
        attn += lp.bo
        drop1 = None
        if use_dropout:
            drop1 = _dropout_mask(config, *ids.shape, rng)[:, :rows]
            attn *= drop1
        attn += x[:, :rows]
        h1, ln1_aux = _layer_norm(attn, lp.ln1_g, lp.ln1_b)
        if cache is None:
            del x, ctx, attn, ln1_aux
        ff_pre = h1 @ lp.w1
        ff_pre += lp.b1
        if cache is None:
            act = gelu(ff_pre)
            del ff_pre
        else:
            act, cdf = gelu(ff_pre, return_cdf=True)
        ff = act @ lp.w2
        if cache is None:
            del act
        ff += lp.b2
        drop2 = None
        if use_dropout:
            drop2 = _dropout_mask(config, *ids.shape, rng)[:, :rows]
            ff *= drop2
        ff += h1
        h2, ln2_aux = _layer_norm(ff, lp.ln2_g, lp.ln2_b)
        if cache is not None:
            cache["layers"].append(
                {
                    "x_in": x, "qh": qh, "kh": kh, "vh": vh, "probs": probs,
                    "ctx": ctx, "drop1": drop1, "h1": h1, "ln1_aux": ln1_aux,
                    "ff_pre": ff_pre, "cdf": cdf, "act": act, "drop2": drop2,
                    "ln2_aux": ln2_aux,
                }
            )
        x = h2
    return x


def weight_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient of a weight applied as ``x @ w``: the sum over all leading
    axes of x^T dy, shape (d_in, d_out), as one BLAS matrix product."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def backward_batch(
    params: EncoderParams,
    config: EncoderConfig,
    cache: dict,
    d_hidden: np.ndarray,
    grads: Optional[EncoderParams] = None,
) -> EncoderParams:
    """Exact reverse-mode gradients for a recorded forward_batch pass.

    ``d_hidden`` is the upstream gradient on the final hidden states.  The
    gradients are added into ``grads`` (zeros when not given), which is
    returned.  ``d_hidden`` and the cache are left unchanged.

    Intermediates are updated in place with the operations, in the order,
    of the allocating expressions, so the bits are theirs; the 3-D
    ``X @ W.T`` products and every sum over positions are left as they are,
    since regrouping them moves the last bits.  A pooled last layer's
    query-side work runs over its recorded query rows; its keys and values
    still get gradients at all T positions, and so does its input.
    """
    if grads is None:
        grads = _zero_params(config)
    scale = 1.0 / math.sqrt(config.d_head)
    dx = np.asarray(d_hidden, dtype=config.np_dtype)

    for li in range(config.n_layers - 1, -1, -1):
        lp = params.layers[li]
        gl = grads.layers[li]
        c = cache["layers"][li]

        # d_h1 is the residual's gradient; it is added to in place only
        # after the last read of d_ff, which may be the same array.
        d_h1, d_g, d_b = _layer_norm_backward(dx, lp.ln2_g, c["ln2_aux"])
        gl.ln2_g += d_g
        gl.ln2_b += d_b
        d_ff = d_h1 if c["drop2"] is None else d_h1 * c["drop2"]

        gl.w2 += weight_grad(c["act"], d_ff)
        gl.b2 += d_ff.sum(axis=(0, 1))
        d_ff_pre = d_ff @ lp.w2.T
        d_ff_pre *= gelu_grad(c["ff_pre"], c["cdf"])
        gl.w1 += weight_grad(c["h1"], d_ff_pre)
        gl.b1 += d_ff_pre.sum(axis=(0, 1))
        d_h1 += d_ff_pre @ lp.w1.T

        dx_layer, d_g, d_b = _layer_norm_backward(d_h1, lp.ln1_g, c["ln1_aux"])
        gl.ln1_g += d_g
        gl.ln1_b += d_b
        d_attn = dx_layer if c["drop1"] is None else dx_layer * c["drop1"]

        gl.wo += weight_grad(c["ctx"], d_attn)
        gl.bo += d_attn.sum(axis=(0, 1))
        d_ctx = _split_heads(d_attn @ lp.wo.T, config.n_heads)

        probs, qh, kh, vh = c["probs"], c["qh"], c["kh"], c["vh"]
        d_vh = probs.swapaxes(-1, -2) @ d_ctx
        d_scores = _softmax_backward(d_ctx @ vh.swapaxes(-1, -2), probs)
        d_qh = d_scores @ kh
        d_qh *= scale
        d_kh = d_scores.swapaxes(-1, -2) @ qh
        d_kh *= scale

        x_in = c["x_in"]
        d_q = _merge_heads(d_qh)
        d_k = _merge_heads(d_kh)
        d_v = _merge_heads(d_vh)
        rows = d_q.shape[1]  # T, or a pooled layer's query rows
        gl.wq += weight_grad(x_in[:, :rows], d_q)
        gl.bq += d_q.sum(axis=(0, 1))
        gl.wk += weight_grad(x_in, d_k)
        gl.bk += d_k.sum(axis=(0, 1))
        gl.wv += weight_grad(x_in, d_v)
        gl.bv += d_v.sum(axis=(0, 1))
        # At the query rows, residual + ((q + k) + v) with its operands
        # swapped: IEEE addition commutes, so the bits are that sum's.
        dx = d_k @ lp.wk.T
        dx[:, :rows] += d_q @ lp.wq.T
        dx += d_v @ lp.wv.T
        dx[:, :rows] += dx_layer

    _scatter_add_rows(grads.embedding, cache["ids"], dx)
    return grads


def _scatter_add_rows(table: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """Add ``rows[..., j]`` into ``table[ids, j]`` in place, repeated ids
    summing; ``table`` is a C-contiguous (n, d) array.

    One 1-D ``np.add.at`` over the flat indices ids * d + j: each element
    receives its terms in the order of ``np.add.at(table, ids, rows)`` over
    (-1, d) rows, so the bits are the same, at a quarter of the time.
    """
    if not table.flags.c_contiguous:
        raise ValueError("the table to scatter into must be C-contiguous")
    d = table.shape[-1]
    flat_ids = (ids[..., None] * d + np.arange(d)).reshape(-1)
    np.add.at(table.reshape(-1), flat_ids, rows.reshape(-1).astype(table.dtype, copy=False))


def _row_lengths(attn_mask: np.ndarray, max_len: int) -> np.ndarray:
    """Each row's last real position, rounded up to a multiple of 8 and
    capped at ``max_len``; a row without real positions counts as one."""
    real = np.asarray(attn_mask, dtype=bool)
    last = np.where(real.any(axis=1), real.shape[1] - np.argmax(real[:, ::-1], axis=1), 1)
    return np.minimum(max_len, -(-last // _LENGTH_MULTIPLE) * _LENGTH_MULTIPLE)


def inference_length(attn_mask: np.ndarray, max_len: int) -> int:
    """Positions a forward over ``attn_mask`` has to cover: the length an
    inference forward and a training step cut a batch to.

    The last real position of any row, rounded up to a multiple of 8 and
    capped at ``max_len``.  The rounding keeps the trimmed forward
    bit-identical to the full-length one while the sums over keys (numpy's
    softmax normaliser, the BLAS ``probs @ vh`` contraction) add their
    terms in blocks of 8; the trimmed backward regroups the weight-gradient
    sums and moves in the last bits (README, encoder section).
    """
    floor = min(max_len, _LENGTH_MULTIPLE)
    return int(_row_lengths(attn_mask, max_len).max(initial=floor))


def forward_inference(
    params: EncoderParams,
    config: EncoderConfig,
    ids: np.ndarray,
    attn_mask: np.ndarray,
    *,
    pooled: bool = False,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Inference-mode hidden states, each row run over its own real prefix.

    Rows are grouped by their own ``inference_length`` and each group runs
    through forward_batch in chunks of rows, so a row is computed at the
    same length whatever else is in the batch; with OpenBLAS a batch is then
    bit-identical to its rows run alone (README, encoder section).  Returns
    one ``(rows, hidden)`` per chunk: its row positions and forward_batch's
    output over them at the group's length t, over min(2, t) query rows with
    ``pooled`` (for heads that read the [CLS] row alone).  Zero rows give [].
    """
    ids = np.asarray(ids)
    mask = np.asarray(attn_mask)
    if ids.ndim != 2 or not 1 <= ids.shape[1] <= config.max_len:
        raise ValueError(f"ids must have shape (batch, T) with 1 <= T <= {config.max_len}")
    lengths = _row_lengths(mask, ids.shape[1])
    groups = []
    for t in np.unique(lengths):
        rows = np.flatnonzero(lengths == t)
        for i in range(0, rows.size, _INFERENCE_CHUNK):
            sel = rows[i : i + _INFERENCE_CHUNK]
            out = forward_batch(params, config, ids[sel, :t], mask[sel, :t], pooled=pooled)
            groups.append((sel, out))
    return groups


def forward(
    params: EncoderParams,
    config: EncoderConfig,
    seq: TokenSequence,
    *,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> PooledOutput:
    """Encode one TokenSequence; the sentence vector is the [CLS] row."""
    ids = np.asarray(seq.ids, dtype=np.int64)[None, :]
    mask = np.asarray(seq.attention_mask, dtype=np.int64)[None, :]
    hidden = forward_batch(params, config, ids, mask, training=training, rng=rng)
    return PooledOutput(sentence_vec=hidden[0, 0], token_vecs=hidden[0])


def bow_encode(seq: TokenSequence, vocab_size: int) -> np.ndarray:
    """L2-normalized term-frequency vector over the real non-special tokens.

    Special and padding positions (those without a character offset) are
    ignored; a sequence with no real tokens maps to the zero vector.
    """
    vec = np.zeros(vocab_size, dtype=np.float64)
    for tok_id, offset in zip(seq.ids, seq.offsets):
        if offset is not None:
            vec[tok_id] += 1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec
