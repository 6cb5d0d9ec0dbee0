"""Pluggable kernel providers behind the NTT/RNS hot path.

The paper's scale-out story swaps the arithmetic engine under an
unchanged FHE dataflow; :mod:`repro.backend` is that seam in software.
A :class:`KernelProvider` supplies the negacyclic NTT kernels and the
element-wise RNS operations every :class:`~repro.poly.RnsContext`
dispatches through; the registry resolves which provider a context uses
(``backend=`` argument > CLI/:func:`use_backend` scope >
``$REPRO_BACKEND`` > ``"numpy"``).

Shipped providers:

``numpy``
    The reference vectorized implementation (always available; the
    default; byte-identical to the pre-backend kernels).
``numba``
    njit-compiled Harvey butterflies, parallel over limbs.  Optional;
    degrades to numpy with a ``RuntimeWarning`` when not installed.

Every future order-of-magnitude engine (C extension, GPU) registers
here via :func:`register_backend` and inherits the whole dataflow.
"""

from repro.backend.numba_backend import NumbaProvider
from repro.backend.numpy_backend import NumpyProvider
from repro.backend.provider import BackendUnavailable, KernelProvider
from repro.backend.registry import (
    available_backends,
    backend_names,
    clear_caches,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
    resolve_backend_name,
    use_backend,
)

__all__ = [
    "BackendUnavailable",
    "KernelProvider",
    "NumbaProvider",
    "NumpyProvider",
    "available_backends",
    "backend_names",
    "clear_caches",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "resolve_backend_name",
    "use_backend",
]

register_backend(NumpyProvider)
register_backend(NumbaProvider)
