"""Cascade definitions from the FuseMax paper.

- :mod:`repro.cascades.pedagogical` — Cascades 1–3 (Sec. III) and prefix sums.
- :mod:`repro.cascades.softmax` — softmax as a cascade (Sec. IV-C).
- :mod:`repro.cascades.attention` — the 3-/2-/1-pass attention cascades
  (Sec. IV-E), with and without the division-reduction optimization.
- :mod:`repro.cascades.transformer` — the linear layers surrounding
  attention in a transformer encoder (Sec. IV-A).

The names below load with their defining submodule on first use (see
:mod:`repro._lazy`); code inside the package imports that submodule.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "attention": (
            "attention_1pass",
            "attention_1pass_fa1",
            "attention_2pass",
            "attention_3pass",
            "attention_batched",
            "attention_naive",
        ),
        "extensions": ("causal_attention", "sigmoid_attention", "sliding_window_attention"),
        "pedagogical": (
            "cascade1_two_pass",
            "cascade2_deferred",
            "cascade3_iterative",
            "iterative_prefix_sum",
        ),
        "softmax": ("naive_softmax", "stable_softmax"),
        "transformer": ("encoder_layer_einsums",),
    },
)
