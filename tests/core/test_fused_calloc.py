"""The fused CALLOC kernels against the autograd reference, bit for bit.

``CALLOCModel.infer`` and ``CALLOCModel.input_gradient`` run plain numpy
(:mod:`repro.nn.fastpath`); ``CALLOCModel.forward`` with ``loss.backward()``
is the reference.  Every comparison is on the uint64 view of the float64
arrays, so a single flipped bit fails.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import CALLOCModel, CALLOCTrainer, Curriculum, TrainerConfig
from repro.nn import CrossEntropyLoss, Tensor, no_grad


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(bits(actual), bits(expected))


def autograd_logits(model: CALLOCModel, features: np.ndarray) -> np.ndarray:
    with no_grad():
        return model(Tensor(np.asarray(features, dtype=np.float64))).data


def autograd_gradient(model: CALLOCModel, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    inputs = Tensor(np.asarray(features, dtype=np.float64), requires_grad=True)
    CrossEntropyLoss()(model(inputs), labels).backward()
    model.zero_grad()
    return inputs.grad


def make_model(num_aps=20, num_classes=9, per_class=1, seed=0, **kwargs) -> CALLOCModel:
    """A model with perturbed (non-initial) weights so every term matters."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), per_class)
    model = CALLOCModel(
        num_aps=num_aps,
        num_classes=num_classes,
        reference_features=rng.random((labels.size, num_aps)),
        reference_positions=rng.random((labels.size, 2)) * 25.0,
        reference_labels=labels,
        embed_dim=16,
        attention_dim=8,
        rng=np.random.default_rng(seed + 1),
        **kwargs,
    )
    for param in model.parameters():
        param.data = param.data + rng.normal(0.0, 0.2, size=param.data.shape)
    model.eval()
    return model


def batch(model: CALLOCModel, rows: int, seed: int = 3):
    rng = np.random.default_rng(seed)
    return rng.random((rows, model.num_aps)), rng.integers(0, model.num_classes, size=rows)


@pytest.mark.parametrize("rows", [1, 2, 64, 9 * 7])
def test_logits_and_gradient_match_autograd(rows):
    model = make_model()
    features, labels = batch(model, rows)
    assert_bitwise(model.infer(features), autograd_logits(model, features))
    assert_bitwise(
        model.input_gradient(features, labels), autograd_gradient(model, features, labels)
    )


@pytest.mark.parametrize("log_bandwidth", [np.log(0.02), np.log(0.08), np.log(0.5)])
def test_bandwidth_clip_range(log_bandwidth):
    """Below, inside and above ``KERNEL_BANDWIDTH_RANGE``."""
    model = make_model()
    model.log_bandwidth.data = np.array([log_bandwidth])
    features, labels = batch(model, 16)
    assert_bitwise(model.infer(features), autograd_logits(model, features))
    assert_bitwise(
        model.input_gradient(features, labels), autograd_gradient(model, features, labels)
    )


def test_database_of_every_scan():
    """``reference_mode="all"``: several database rows per class."""
    model = make_model(per_class=4)
    features, labels = batch(model, 24)
    assert_bitwise(model.infer(features), autograd_logits(model, features))
    assert_bitwise(
        model.input_gradient(features, labels), autograd_gradient(model, features, labels)
    )


def test_attention_scale_override():
    model = make_model()
    model.attention.scale = 0.7
    features, labels = batch(model, 16)
    assert_bitwise(model.infer(features), autograd_logits(model, features))
    assert_bitwise(
        model.input_gradient(features, labels), autograd_gradient(model, features, labels)
    )


def test_training_mode_draws_the_same_augmentation():
    """In training mode the key side consumes the same dropout/noise draws."""
    model = make_model()
    model.train()
    reference = copy.deepcopy(model)
    features, labels = batch(model, 8)
    assert_bitwise(model.infer(features), autograd_logits(reference, features))
    assert_bitwise(
        model.input_gradient(features, labels), autograd_gradient(reference, features, labels)
    )
    dropout, ref_dropout = model.original_embedding.dropout, reference.original_embedding.dropout
    assert dropout.rng.bit_generator.state == ref_dropout.rng.bit_generator.state


def test_gradient_raises_under_no_grad():
    model = make_model()
    features, labels = batch(model, 4)
    with no_grad():
        with pytest.raises(RuntimeError, match="does not require grad"):
            model.input_gradient(features, labels)


def test_gradient_leaves_param_grad_untouched():
    model = make_model()
    features, labels = batch(model, 4)
    sentinel = np.full_like(model.kernel_mix.data, 7.0)
    model.kernel_mix.grad = sentinel
    model.input_gradient(features, labels)
    assert model.kernel_mix.grad is sentinel
    assert all(p.grad is None for p in model.parameters() if p is not model.kernel_mix)


class _AutogradGradientView:
    """The trainer's lesson-data gradient as it was computed before fusion."""

    def __init__(self, model: CALLOCModel) -> None:
        self._model = model

    def loss_gradient(self, features, labels):
        self._model.eval()
        gradient = autograd_gradient(self._model, features, np.asarray(labels, dtype=np.int64))
        self._model.train()
        return gradient.copy()


class _AutogradTrainer(CALLOCTrainer):
    def _gradient_view(self):
        return _AutogradGradientView(self.model)


def test_curriculum_fit_matches_autograd_lessons():
    """A full curriculum fit with fused lesson gradients ends in the same weights."""
    rng = np.random.default_rng(5)
    features = rng.random((40, 20))
    labels = np.repeat(np.arange(8), 5)
    states = []
    for trainer_cls in (CALLOCTrainer, _AutogradTrainer):
        model = make_model(num_aps=20, num_classes=8, seed=2)
        model.train()
        trainer_cls(
            model,
            curriculum=Curriculum(num_lessons=3),
            config=TrainerConfig(epochs_per_lesson=2, batch_size=16, seed=0),
        ).train(features, labels)
        states.append(model.state_dict())
    fused, reference = states
    assert sorted(fused) == sorted(reference)
    for name in fused:
        assert_bitwise(fused[name], reference[name])


def test_localizer_uses_eval_mode_and_matches_autograd(trained_calloc, tiny_campaign):
    model = trained_calloc.model
    features = tiny_campaign.train.features[:64]
    labels = tiny_campaign.train.labels[:64]
    model.train()  # predict must switch back to eval mode
    probabilities = trained_calloc.predict_proba(features)
    assert not model.training
    logits = autograd_logits(model, features)
    exps = np.exp(logits - logits.max(axis=1, keepdims=True))
    assert_bitwise(probabilities, exps / exps.sum(axis=1, keepdims=True))
    single = autograd_logits(model, features[:1])
    exps = np.exp(single - single.max(axis=1, keepdims=True))
    expected = exps / exps.sum(axis=1, keepdims=True)
    assert_bitwise(trained_calloc.predict_proba(features[:1]), expected)
    np.testing.assert_array_equal(trained_calloc.predict(features), logits.argmax(axis=1))
    assert_bitwise(
        trained_calloc.loss_gradient(features, labels), autograd_gradient(model, features, labels)
    )


_BLAS_PROBE = """
import hashlib
import numpy as np
from repro.core import CALLOC
from repro.data.fingerprint import FingerprintDataset

rng = np.random.default_rng(4)
labels = np.repeat(np.arange(6), 6)
rss = -95.0 + 60.0 * rng.random((6, 18))[labels] + rng.normal(0.0, 2.0, (36, 18))
dataset = FingerprintDataset(rss, labels, rng.random((6, 2)) * 20.0)
features = dataset.features
model = CALLOC(embed_dim=16, attention_dim=8, num_lessons=2, epochs_per_lesson=2, seed=0)
model.fit(dataset)
digest = hashlib.sha256()
for array in (model.loss_gradient(features, labels), model.predict_proba(features)):
    digest.update(np.ascontiguousarray(array).tobytes())
for name, array in sorted(model.state_arrays().items()):
    digest.update(name.encode() + np.ascontiguousarray(array).tobytes())
print(digest.hexdigest())
"""


def test_results_do_not_depend_on_blas_threads():
    """A tiny CALLOC fit, its gradient and probabilities at 1 and 2 BLAS threads."""
    src = Path(__file__).resolve().parents[2] / "src"
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src))
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = threads
        result = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digests.append(result.stdout.strip().splitlines()[-1])
    assert digests[0] == digests[1]
