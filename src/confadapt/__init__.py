"""Cross-domain hyper-parameter adaptation of Conformer-style models.

A desk-scale toolkit: a weight-shared Conformer supernet whose block
hyper-parameters (feed-forward width, attention heads, head dim, conv
kernel) are selected by Gumbel-Softmax architecture weights with a
model-size penalty, plus the full two-stage pipeline from source-domain
pre-training to target-domain fine-tuning of the derived model.

The package root defines no names: import each from the module that
defines it, e.g. ``from confadapt.pipeline import run_recipe``.
"""
