"""Views: offset/shape/stride windows onto base arrays.

The paper writes views as ``a0[0:10:1]`` — a start, stop and step over the
base allocation.  Internally Bohrium views are n-dimensional: an element
offset into the base plus a shape and per-dimension strides (in elements).
We implement the n-dimensional form and print the 1-D slice notation for
contiguous vector views to match the listings.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro.bytecode.base import BaseArray
from repro.bytecode.dtypes import DType


def _as_tuple(values: Iterable[int]) -> Tuple[int, ...]:
    return tuple(int(v) for v in values)


def contiguous_strides(shape: Sequence[int]) -> Tuple[int, ...]:
    """Return C-contiguous (row-major) strides, in elements, for ``shape``."""
    strides = []
    acc = 1
    for dim in reversed(tuple(shape)):
        strides.append(acc)
        acc *= int(dim)
    return tuple(reversed(strides))


class View:
    """A strided window over a :class:`BaseArray`.

    Parameters
    ----------
    base:
        The base array this view reads from / writes to.
    offset:
        Element offset of the view's first element within the base.
    shape:
        Extent of the view in each dimension.
    strides:
        Stride, in *elements*, for each dimension.  Defaults to C-contiguous
        strides for ``shape``.

    Notes
    -----
    Views are immutable value objects: equality compares base identity,
    offset, shape and strides.  This is exactly the "same view" notion the
    transformations need (two byte-codes writing ``a0[0:10:1]`` touch the
    same elements).
    """

    __slots__ = ("base", "offset", "shape", "strides")

    def __init__(
        self,
        base: BaseArray,
        offset: int = 0,
        shape: Optional[Sequence[int]] = None,
        strides: Optional[Sequence[int]] = None,
    ) -> None:
        if not isinstance(base, BaseArray):
            raise TypeError(f"base must be a BaseArray, got {type(base)!r}")
        self.base = base
        self.offset = int(offset)
        if shape is None:
            shape = (base.nelem,)
        self.shape = _as_tuple(shape)
        if any(dim < 0 for dim in self.shape):
            raise ValueError(f"negative dimension in shape {self.shape}")
        if strides is None:
            strides = contiguous_strides(self.shape)
        self.strides = _as_tuple(strides)
        if len(self.strides) != len(self.shape):
            raise ValueError(
                f"strides {self.strides} and shape {self.shape} have different ranks"
            )
        if self.offset < 0:
            raise ValueError(f"negative offset {self.offset}")
        if self.nelem > 0:
            if self._min_index() < 0:
                raise ValueError(
                    f"view extends before its base: min element index {self._min_index()} < 0"
                )
            if self._max_index() >= base.nelem:
                raise ValueError(
                    f"view extends beyond its base: max element index {self._max_index()} "
                    f">= base nelem {base.nelem}"
                )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def full(cls, base: BaseArray, shape: Optional[Sequence[int]] = None) -> "View":
        """A contiguous view covering the whole base, optionally reshaped."""
        if shape is None:
            shape = (base.nelem,)
        nelem = 1
        for dim in shape:
            nelem *= int(dim)
        if nelem != base.nelem:
            raise ValueError(
                f"shape {tuple(shape)} has {nelem} elements, base has {base.nelem}"
            )
        return cls(base, 0, shape)

    @classmethod
    def from_slice(cls, base: BaseArray, start: int, stop: int, step: int = 1) -> "View":
        """Build the 1-D ``base[start:stop:step]`` view used in the listings."""
        if step <= 0:
            raise ValueError("step must be positive")
        if start < 0 or stop < start:
            raise ValueError(f"invalid slice [{start}:{stop}:{step}]")
        length = max(0, (stop - start + step - 1) // step)
        return cls(base, start, (length,), (step,))

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    @property
    def nelem(self) -> int:
        """Number of elements addressed by the view."""
        count = 1
        for dim in self.shape:
            count *= dim
        return count

    @property
    def dtype(self) -> DType:
        """The element type, inherited from the base."""
        return self.base.dtype

    @property
    def nbytes(self) -> int:
        """Bytes addressed by the view (elements times item size)."""
        return self.nelem * self.base.dtype.itemsize

    def is_contiguous(self) -> bool:
        """True when the view is C-contiguous over its shape."""
        return self.strides == contiguous_strides(self.shape)

    def covers_base(self) -> bool:
        """True when the view addresses every element of its base exactly once."""
        return self.offset == 0 and self.is_contiguous() and self.nelem == self.base.nelem

    def _max_index(self) -> int:
        """Largest element index into the base touched by this view.

        Negative strides walk *down* from the offset, so only positive
        strides advance the maximum.
        """
        index = self.offset
        for dim, stride in zip(self.shape, self.strides):
            if dim > 0 and stride > 0:
                index += (dim - 1) * stride
        return index

    def _min_index(self) -> int:
        """Smallest element index into the base touched by this view."""
        index = self.offset
        for dim, stride in zip(self.shape, self.strides):
            if dim > 0 and stride < 0:
                index += (dim - 1) * stride
        return index

    def element_indices(self) -> Tuple[int, ...]:
        """All base element indices touched, in view order.

        Only intended for small views (tests and overlap analysis); the
        runtime never materializes this for large arrays.
        """
        if self.nelem == 0:
            return ()
        return tuple(self._indices_recursive(0, self.offset))

    def _indices_recursive(self, axis: int, base_offset: int):
        if axis == self.ndim:
            yield base_offset
            return
        for i in range(self.shape[axis]):
            yield from self._indices_recursive(axis + 1, base_offset + i * self.strides[axis])

    # ------------------------------------------------------------------ #
    # Relations between views
    # ------------------------------------------------------------------ #

    def same_view(self, other: "View") -> bool:
        """True when both views address the same elements in the same order."""
        return (
            self.base is other.base
            and self.offset == other.offset
            and self.shape == other.shape
            and self.strides == other.strides
        )

    def overlaps(self, other: "View") -> bool:
        """Conservative overlap test between two views.

        Returns ``False`` only when the views provably touch disjoint
        elements.  Views on different bases never overlap.  For views on the
        same base we first compare bounding index ranges.  If those
        intersect, the answer is exact without enumerating when it is the
        same view or both are C-contiguous (each then covers its whole
        range); otherwise, when both views are small we fall back to exact
        element-set intersection, and else conservatively report an overlap.
        """
        if self.base is not other.base:
            return False
        if self.nelem == 0 or other.nelem == 0:
            return False
        lo_a, hi_a = self._min_index(), self._max_index()
        lo_b, hi_b = other._min_index(), other._max_index()
        if hi_a < lo_b or hi_b < lo_a:
            return False
        if self.same_view(other) or (self.is_contiguous() and other.is_contiguous()):
            return True
        exact_limit = 4096
        if self.nelem <= exact_limit and other.nelem <= exact_limit:
            return bool(set(self.element_indices()) & set(other.element_indices()))
        return True

    def reshape(self, shape: Sequence[int]) -> "View":
        """Return a contiguous view of the same base with a new shape.

        Only valid for contiguous views whose element count matches the new
        shape.
        """
        if not self.is_contiguous():
            raise ValueError("cannot reshape a non-contiguous view")
        nelem = 1
        for dim in shape:
            nelem *= int(dim)
        if nelem != self.nelem:
            raise ValueError(f"cannot reshape {self.nelem} elements to shape {tuple(shape)}")
        return View(self.base, self.offset, shape)

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, View):
            return NotImplemented
        return self.same_view(other)

    def __hash__(self) -> int:
        return hash((id(self.base), self.offset, self.shape, self.strides))

    def __repr__(self) -> str:
        return (
            f"View(base={self.base.name}, offset={self.offset}, "
            f"shape={self.shape}, strides={self.strides})"
        )
