"""Negacyclic number-theoretic transforms over ``Z_q[X]/(X^N + 1)``.

This is the software twin of Hydra's NTT compute unit.  The hardware uses a
radix-4 butterfly network with 512 lanes (paper Section IV-B); here we use a
radix-2 Cooley-Tukey / Gentleman-Sande pair vectorized with NumPy, which is
mathematically identical (radix only changes the hardware schedule, not the
transform).

Moduli must fit in 31 bits so that butterfly products fit in ``uint64``
lanes without overflow — the same word-width discipline the FPGA applies to
its DSP datapath.

Performance notes
-----------------
The butterflies use *lazy reduction*: values travel between stages in
``[0, 2q)`` and only the twiddle product takes a full ``% q``.  The exact
conditional subtraction ``min(x, x - q)`` exploits ``uint64`` wraparound
(when ``x < q`` the subtraction wraps to a huge value, so the minimum picks
``x``) and is several times cheaper than NumPy's ``%``.

Stages whose butterfly span gets small are executed in a transposed layout
(:data:`_PHASE_SPLIT`-wide blocks become rows) so every NumPy op touches
long contiguous runs instead of SIMD-hostile strided pairs.

:class:`NttKernel` runs the same network over a ``(limbs, N)`` stack of
residue polynomials with per-limb moduli — the building block
:class:`~repro.poly.RnsContext` uses to batch limb loops into single
ndarray ops.  Twiddle tables are shared through the
:func:`get_ntt_context` / :func:`get_ntt_kernel` factories, which are
**provider-scoped**: each :class:`repro.backend.KernelProvider` owns
its own context/kernel caches, so a (degree, modulus) pair is only ever
tabulated once per provider and backends never share cached tables.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.math.modular import mod_inverse, nth_root_of_unity
from repro.obs.metrics import inc as _metric_inc

__all__ = [
    "NttContext",
    "NttKernel",
    "bit_reverse_permutation",
    "clear_ntt_caches",
    "get_ntt_context",
    "get_ntt_kernel",
]

_MAX_MODULUS_BITS = 31

#: Block size at which the butterfly network switches to the transposed
#: layout.  Below this span, ``a.reshape(m, 2, t)`` slices are strided
#: pairs; transposing once keeps the inner (contiguous) axis long.
_PHASE_SPLIT = 64


@lru_cache(maxsize=64)
def _bit_reverse_cached(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    perm = np.arange(n, dtype=np.int64)
    result = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        result = (result << 1) | (perm & 1)
        perm >>= 1
    result.setflags(write=False)
    return result


def bit_reverse_permutation(n: int) -> np.ndarray:
    """Return the length-``n`` bit-reversal permutation (n a power of two).

    Permutations are memoized per length; callers receive a fresh writable
    copy so the cached table can never be mutated.
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    return _bit_reverse_cached(n).copy()


def _power_table(base: int, count: int, modulus: int) -> np.ndarray:
    """``[base**i % modulus for i in range(count)]`` by repeated doubling."""
    table = np.ones(count, dtype=np.uint64)
    span = 1
    step = base % modulus
    qu = np.uint64(modulus)
    while span < count:
        chunk = min(span, count - span)
        table[span : span + chunk] = (
            table[:chunk] * np.uint64(step) % qu
        )
        step = step * step % modulus
        span *= 2
    return table


class NttKernel:
    """One butterfly network over a ``(limbs, N)`` stack of residues.

    Every limb has its own modulus and twiddle tables; all stage arithmetic
    broadcasts over the leading limb axis, so a multi-limb transform is a
    single pass of ndarray ops instead of a Python loop over limbs.

    Inputs must hold residues in ``[0, q)`` per limb.  ``forward`` with
    ``reduce_output=False`` returns lazily-reduced values in ``[0, 2q)``
    (cheaper when the caller immediately multiplies pointwise and reduces).

    ``contexts`` (keyword-only, optional) are the per-prime
    :class:`NttContext` tables to stack; kernel providers pass their own
    cached contexts here so backends never share twiddle tables.  When
    omitted, tables come from the default provider's cache.
    """

    def __init__(self, poly_degree: int, *, moduli, contexts=None):
        self.poly_degree = int(poly_degree)
        self.moduli = tuple(int(q) for q in moduli)
        n = self.poly_degree
        if contexts is None:
            contexts = [get_ntt_context(n, q) for q in self.moduli]
        elif len(contexts) != len(self.moduli):
            raise ValueError(
                f"{len(contexts)} contexts given for "
                f"{len(self.moduli)} moduli"
            )
        self._psi = np.stack([c._psi_rev for c in contexts])
        self._psi_inv = np.stack([c._psi_inv_rev for c in contexts])
        q = np.array(self.moduli, dtype=np.uint64)
        self._q1 = q[:, None]
        self._q2 = q[:, None, None]
        self._q3 = q[:, None, None, None]
        self._n_inv = np.array(
            [c._degree_inv for c in contexts], dtype=np.uint64
        )[:, None]
        self._two_phase = n >= 4 * _PHASE_SPLIT
        if self._two_phase:
            self._fwd_stages2, self._inv_stages2 = self._transposed_stages()

    def _transposed_stages(self):
        """Per-stage twiddles reshaped for the transposed (phase-2) layout.

        In that layout the array is ``(limbs, B, n/B)`` with ``B =``
        :data:`_PHASE_SPLIT`; the twiddle of global block ``b*c + i`` must
        broadcast as ``[limb, i, 1, b]``.
        """
        n = self.poly_degree
        limbs = len(self.moduli)
        m0 = n // _PHASE_SPLIT
        fwd, inv = [], []
        t = _PHASE_SPLIT // 2
        while t >= 1:
            m = n // (2 * t)
            c = _PHASE_SPLIT // (2 * t)
            shape = (limbs, m0, c)
            f = (self._psi[:, m : 2 * m].reshape(shape)
                 .transpose(0, 2, 1)[:, :, None, :].copy())
            g = (self._psi_inv[:, m : 2 * m].reshape(shape)
                 .transpose(0, 2, 1)[:, :, None, :].copy())
            fwd.append((t, c, f))
            inv.append((t, c, g))
            t //= 2
        inv.reverse()
        return fwd, inv

    # ------------------------------------------------------------------

    def forward(self, data: np.ndarray, reduce_output: bool = True):
        """Cooley-Tukey forward pass over a ``(limbs, N)`` stack."""
        limbs, n = data.shape
        a = data.copy()
        q2 = self._q2
        t = n
        m = 1
        limit = _PHASE_SPLIT if self._two_phase else 0
        while m < n and t > limit:
            t //= 2
            tw = self._psi[:, m : 2 * m][:, :, None]
            blk = a.reshape(limbs, m, 2, t)
            u = blk[:, :, 0]
            v = blk[:, :, 1]
            uh = np.minimum(u, u - q2)          # exact reduce to [0, q)
            vr = v * tw % q2                    # v < 2q, tw < q: fits u64
            blk[:, :, 0] = uh + vr              # < 2q
            blk[:, :, 1] = uh + (q2 - vr)       # < 2q
            m *= 2
        if self._two_phase:
            a = self._forward_transposed(a, limbs, n)
        if reduce_output:
            a = np.minimum(a, a - self._q1)
        return a

    def _forward_transposed(self, a, limbs, n):
        m0 = n // _PHASE_SPLIT
        q3 = self._q3
        c_arr = a.reshape(limbs, m0, _PHASE_SPLIT).transpose(0, 2, 1).copy()
        for (t, c, tw) in self._fwd_stages2:
            blk = c_arr.reshape(limbs, c, 2, t, m0)
            u = blk[:, :, 0]
            v = blk[:, :, 1]
            uh = np.minimum(u, u - q3)
            vr = v * tw % q3
            blk[:, :, 0] = uh + vr
            blk[:, :, 1] = uh + (q3 - vr)
        return c_arr.transpose(0, 2, 1).copy().reshape(limbs, n)

    def inverse(self, data: np.ndarray) -> np.ndarray:
        """Gentleman-Sande inverse pass over a ``(limbs, N)`` stack.

        Accepts lazily-reduced input in ``[0, 2q)``; output is fully
        reduced.
        """
        limbs, n = data.shape
        a = data.copy()
        q2 = self._q2
        if self._two_phase:
            a = self._inverse_transposed(a, limbs, n)
            t = _PHASE_SPLIT
            m = n // (2 * _PHASE_SPLIT)
        else:
            t = 1
            m = n // 2
        while m >= 1:
            tw = self._psi_inv[:, m : 2 * m][:, :, None]
            blk = a.reshape(limbs, m, 2, t)
            u = blk[:, :, 0]
            v = blk[:, :, 1]
            uh = np.minimum(u, u - q2)
            vh = np.minimum(v, v - q2)
            blk[:, :, 0] = uh + vh                          # < 2q
            blk[:, :, 1] = (uh + q2 - vh) * tw % q2  # < q
            t *= 2
            m //= 2
        return a * self._n_inv % self._q1

    def _inverse_transposed(self, a, limbs, n):
        m0 = n // _PHASE_SPLIT
        q3 = self._q3
        c_arr = a.reshape(limbs, m0, _PHASE_SPLIT).transpose(0, 2, 1).copy()
        for (t, c, tw) in self._inv_stages2:
            blk = c_arr.reshape(limbs, c, 2, t, m0)
            u = blk[:, :, 0]
            v = blk[:, :, 1]
            uh = np.minimum(u, u - q3)
            vh = np.minimum(v, v - q3)
            blk[:, :, 0] = uh + vh
            blk[:, :, 1] = (uh + q3 - vh) * tw % q3
        return c_arr.transpose(0, 2, 1).copy().reshape(limbs, n)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray):
        """Limb-parallel product in ``Z_q[X]/(X^N+1)`` for a residue stack."""
        fa = self.forward(a, reduce_output=False)
        fb = self.forward(b, reduce_output=False)
        # fa, fb < 2q < 2**32, so the pointwise product fits in uint64.
        return self.inverse(fa * fb % self._q1)


class NttContext:
    """Precomputed tables for forward/inverse negacyclic NTT modulo one prime.

    The negacyclic transform embeds multiplication in ``Z_q[X]/(X^N + 1)``:
    pointwise products of transformed polynomials correspond to negacyclic
    convolution, which is exactly the CKKS ring product.

    Prefer :func:`get_ntt_context` over direct construction — contexts are
    immutable, and the factory shares twiddle tables per provider.

    ``provider`` (keyword-only, optional) is the
    :class:`repro.backend.KernelProvider` that owns this context; when
    set, the :attr:`kernel` property builds its single-limb kernel
    through that provider so the kernel class matches the backend.
    """

    def __init__(self, poly_degree: int, *, modulus: int, provider=None):
        if poly_degree < 2 or poly_degree & (poly_degree - 1):
            raise ValueError(
                f"poly_degree must be a power of two >= 2, got {poly_degree}"
            )
        if modulus.bit_length() > _MAX_MODULUS_BITS:
            raise ValueError(
                f"modulus must fit in {_MAX_MODULUS_BITS} bits for vectorized "
                f"NTT, got {modulus.bit_length()} bits"
            )
        if modulus % (2 * poly_degree) != 1:
            raise ValueError(
                f"modulus {modulus} is not NTT-friendly for degree {poly_degree}"
            )
        self.poly_degree = poly_degree
        self.modulus = modulus
        psi = nth_root_of_unity(2 * poly_degree, modulus)
        psi_inv = mod_inverse(psi, modulus)
        rev = _bit_reverse_cached(poly_degree)
        self._psi_rev = _power_table(psi, poly_degree, modulus)[rev]
        self._psi_inv_rev = _power_table(psi_inv, poly_degree, modulus)[rev]
        self._psi_rev.setflags(write=False)
        self._psi_inv_rev.setflags(write=False)
        self._degree_inv = np.uint64(mod_inverse(poly_degree, modulus))
        self._q = np.uint64(modulus)
        self._provider = provider
        self._kernel = None

    @property
    def kernel(self) -> NttKernel:
        """The single-limb kernel running this transform (provider-built)."""
        if self._kernel is None:
            if self._provider is not None:
                self._kernel = self._provider.get_kernel(
                    self.poly_degree, (self.modulus,)
                )
            else:
                self._kernel = NttKernel(
                    self.poly_degree, moduli=(self.modulus,), contexts=(self,)
                )
        return self._kernel

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Transform coefficient representation to evaluation representation.

        Uses the Cooley-Tukey decimation-in-time network with the ``psi``
        powers folded into the twiddles, so no separate pre-multiplication
        by ``psi^i`` is needed.  Input residues must lie in ``[0, q)``.
        """
        _metric_inc("math.ntt.calls", direction="forward")
        a = self._checked(coeffs)
        return self.kernel.forward(a[None, :])[0]

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Transform evaluation representation back to coefficients."""
        _metric_inc("math.ntt.calls", direction="inverse")
        a = self._checked(values)
        return self.kernel.inverse(a[None, :])[0]

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Return the product of polynomials ``a * b`` in ``Z_q[X]/(X^N+1)``."""
        _metric_inc("math.ntt.calls", 2, direction="forward")
        _metric_inc("math.ntt.calls", direction="inverse")
        return self.kernel.negacyclic_multiply(
            self._checked(a)[None, :], self._checked(b)[None, :]
        )[0]

    def _checked(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.uint64)
        if arr.shape != (self.poly_degree,):
            raise ValueError(
                f"expected shape ({self.poly_degree},), got {arr.shape}"
            )
        return arr


def get_ntt_context(
    poly_degree: int, modulus: int, backend=None
) -> NttContext:
    """Provider-scoped factory for :class:`NttContext` instances.

    Twiddle-table construction is ``O(N)`` big-int work; before this
    factory every :class:`~repro.poly.RnsContext` rebuilt the tables for
    every prime.  Two lookups with the same ``(degree, modulus)`` on the
    same provider return the *same* object; distinct providers never
    share tables (``backend`` resolves per :mod:`repro.backend`
    precedence when ``None``).
    """
    from repro.backend import resolve_backend

    return resolve_backend(backend).get_context(
        int(poly_degree), int(modulus)
    )


def get_ntt_kernel(poly_degree: int, moduli: tuple, backend=None):
    """Provider-scoped factory for stacked :class:`NttKernel` instances."""
    from repro.backend import resolve_backend

    return resolve_backend(backend).get_kernel(
        int(poly_degree), tuple(int(q) for q in moduli)
    )


def clear_ntt_caches() -> None:
    """Drop every provider's memoized contexts/kernels + permutations.

    Alias of :func:`repro.backend.clear_caches` (tests only).
    """
    from repro.backend import clear_caches

    clear_caches()
