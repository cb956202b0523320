"""Reverse-mode automatic differentiation on top of NumPy arrays.

This module provides the :class:`Tensor` class, the foundation of the
``repro.nn`` substrate.  A :class:`Tensor` wraps a ``numpy.ndarray`` and
records the operations applied to it so that gradients can be computed with
:meth:`Tensor.backward`.  The design intentionally mirrors the subset of the
PyTorch tensor API that the CALLOC framework and its baselines require:
element-wise arithmetic with broadcasting, matrix multiplication, reductions,
shape manipulation, and a handful of non-linearities.

The white-box adversarial attacks (FGSM / PGD / MIM) additionally require
gradients *with respect to the network inputs*, which works out of the box
because any :class:`Tensor` with ``requires_grad=True`` accumulates a ``grad``
attribute during backpropagation.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence[float], "Tensor"]

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]


class _GradMode(threading.local):
    """Thread-local autograd switch.

    Grad mode must be per-thread: concurrent queue workers in one process
    evaluate models under ``no_grad`` while siblings build attack graphs, and
    a process-global flag would silently strip ``requires_grad`` from the
    sibling's tensors mid-construction.
    """

    def __init__(self) -> None:
        self.enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables graph construction (in this thread).

    Used during evaluation/prediction to avoid the memory and time overhead of
    recording the computation graph.
    """

    def __enter__(self) -> "no_grad":
        self._previous = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        _GRAD_MODE.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether new operations are currently recorded for autograd."""
    return _GRAD_MODE.enabled


def _as_array(value: ArrayLike) -> np.ndarray:
    """Coerce ``value`` into a float64 NumPy array without copying tensors."""
    if isinstance(value, Tensor):
        return value.data
    array = np.asarray(value, dtype=np.float64)
    return array


def _unbroadcast(gradient: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``gradient`` so that it matches ``shape``.

    NumPy broadcasting expands operands during the forward pass; the backward
    pass must therefore sum gradient contributions over the broadcast axes.
    """
    if gradient.shape == shape:
        return gradient
    # Sum over leading axes added by broadcasting.
    extra_dims = gradient.ndim - len(shape)
    if extra_dims > 0:
        gradient = gradient.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were of size one in the original shape.
    axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and gradient.shape[axis] != 1
    )
    if axes:
        gradient = gradient.sum(axis=axes, keepdims=True)
    return gradient.reshape(shape)


class Tensor:
    """A NumPy-backed tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload.  Stored as ``float64``.
    requires_grad:
        When ``True`` the tensor participates in gradient computation and
        accumulates ``grad`` during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying data as a NumPy array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached deep copy of this tensor."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not requires_grad:
            return Tensor(data, requires_grad=False)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    def _accumulate(self, gradient: np.ndarray) -> None:
        if not self.requires_grad:
            return
        gradient = _unbroadcast(np.asarray(gradient, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = gradient.copy()
        else:
            self.grad = self.grad + gradient

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other_t._accumulate(grad)

        return Tensor._make(out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(-grad)

        return Tensor._make(out_data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(grad * self.data)

        return Tensor._make(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(-grad * self.data / (other_t.data ** 2))

        return Tensor._make(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * (self.data ** (exponent - 1)))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        return self.matmul(other_t)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix multiplication supporting batched (>=2D) operands."""
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other_t.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b)
                other_t._accumulate(grad * a)
                return
            if a.ndim == 1:
                # (k,) @ (k, n) -> (n,)
                self._accumulate(grad @ np.swapaxes(b, -1, -2))
                other_t._accumulate(np.outer(a, grad))
                return
            if b.ndim == 1:
                # (m, k) @ (k,) -> (m,)
                self._accumulate(np.outer(grad, b))
                other_t._accumulate(np.swapaxes(a, -1, -2) @ grad)
                return
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    def transpose(self, *axes: int) -> "Tensor":
        """Permute tensor axes (reverses them when ``axes`` is omitted)."""
        if not axes:
            axes_order = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_order = tuple(axes[0])
        else:
            axes_order = tuple(axes)
        out_data = np.transpose(self.data, axes_order)
        inverse = np.argsort(axes_order)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.transpose(grad, inverse))

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Swap two axes of the tensor."""
        out_data = np.swapaxes(self.data, axis1, axis2)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.swapaxes(grad, axis1, axis2))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward)

    def flatten(self) -> "Tensor":
        """Flatten all dimensions after the first (batch) dimension."""
        batch = self.data.shape[0] if self.data.ndim > 1 else self.data.shape[0]
        return self.reshape(batch, -1) if self.data.ndim > 1 else self.reshape(-1)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        original_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(original_shape, dtype=np.float64)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along ``axis`` with gradient support."""
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

        return Tensor._make(out_data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Stack tensors along a new ``axis`` with gradient support."""
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            split = np.split(grad, len(tensors), axis=axis)
            for tensor, piece in zip(tensors, split):
                tensor._accumulate(np.squeeze(piece, axis=axis))

        return Tensor._make(out_data, tuple(tensors), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        input_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad, dtype=np.float64)
            if axis is None:
                expanded = np.broadcast_to(grad, input_shape)
            else:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                if not keepdims:
                    for ax in sorted(a % len(input_shape) for a in axes):
                        grad = np.expand_dims(grad, ax)
                expanded = np.broadcast_to(grad, input_shape)
            self._accumulate(expanded)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad, dtype=np.float64)
            if axis is None:
                mask = (self.data == self.data.max()).astype(np.float64)
                mask /= mask.sum()
                self._accumulate(mask * grad)
            else:
                maxima = self.data.max(axis=axis, keepdims=True)
                mask = (self.data == maxima).astype(np.float64)
                mask /= mask.sum(axis=axis, keepdims=True)
                if not keepdims:
                    grad = np.expand_dims(grad, axis)
                self._accumulate(mask * grad)

        return Tensor._make(out_data, (self,), backward)

    def min(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(np.float64)
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = np.where(self.data > 0, 1.0, negative_slope)
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically-stable softmax along ``axis`` (fully differentiable)."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exps = np.exp(shifted)
        out_data = exps / exps.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            self._accumulate(out_data * (grad - dot))

        return Tensor._make(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Numerically-stable log-softmax along ``axis``."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_sum
        softmax = np.exp(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]`` (gradient is zero outside range)."""
        out_data = np.clip(self.data, low, high)
        mask = ((self.data >= low) & (self.data <= high)).astype(np.float64)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return Tensor._make(out_data, (self,), backward)

    def dropout(self, rate: float, rng: np.random.Generator) -> "Tensor":
        """Apply inverted dropout with keep-probability ``1 - rate``."""
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        if rate == 0.0:
            return self
        keep = 1.0 - rate
        mask = (rng.random(self.data.shape) < keep).astype(np.float64) / keep
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Backpropagation
    # ------------------------------------------------------------------
    def backward(self, gradient: Optional[ArrayLike] = None) -> None:
        """Backpropagate gradients from this tensor through the graph.

        Parameters
        ----------
        gradient:
            Gradient of the final objective with respect to this tensor.
            Defaults to ``1.0`` which requires this tensor to be a scalar.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if gradient is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without gradient requires a scalar tensor")
            gradient = np.ones_like(self.data)
        gradient = np.asarray(gradient, dtype=np.float64)

        ordering: list[Tensor] = []
        visited: set[int] = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, False)]
            while stack:
                current, processed = stack.pop()
                if processed:
                    ordering.append(current)
                    continue
                if id(current) in visited:
                    continue
                visited.add(id(current))
                stack.append((current, True))
                for parent in current._parents:
                    if id(parent) not in visited:
                        stack.append((parent, False))

        visit(self)

        self._accumulate(gradient)
        for node in reversed(ordering):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def tensors_from(values: Iterable[ArrayLike], requires_grad: bool = False) -> list[Tensor]:
    """Convenience helper converting an iterable of arrays to tensors."""
    return [Tensor(value, requires_grad=requires_grad) for value in values]
