"""Hot-kernel backend selection.

Prefers the compiled extension; falls back to the numpy implementation
when the extension is absent or ``QLOCC_PURE_PYTHON`` is set in the
environment. Both backends expose the same four callables.
"""

import os

if os.environ.get("QLOCC_PURE_PYTHON"):
    from qlocc._kernels import _fallback as _impl
else:
    try:
        from qlocc._kernels import _core as _impl  # type: ignore[attr-defined]
    except ImportError:
        from qlocc._kernels import _fallback as _impl

BACKEND = _impl.BACKEND_NAME

eigvals4x4 = _impl.eigvals4x4
concurrence4 = _impl.concurrence4
filter_gain_single = _impl.filter_gain_single
filter_gain_batch = _impl.filter_gain_batch
