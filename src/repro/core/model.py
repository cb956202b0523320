"""The CALLOC localization model (Sec. IV.B–IV.C).

The model is an attention-based fingerprint matcher:

1. the incoming (curriculum or online) fingerprint is embedded into the
   curriculum hyperspace :math:`H^C_i` — this is the attention **query** Q;
2. the clean offline database (one representative per reference point by
   default) is embedded into the original-data hyperspace :math:`H^O` with
   dropout + Gaussian-noise augmentation — the attention **key** K;
3. the reference-point locations are projected to form the attention
   **value** V;
4. scaled dot-product attention ``softmax(QK^T/sqrt(d_k) + kernel votes) V``
   lets the model focus on the database entries most similar to the query, and
   a final fully connected layer classifies the attended representation into
   reference-point classes.

The attention similarity mixes two terms: the hyperspace dot product of the
paper's Eq. (3) and a *domain-specific bounded per-AP kernel vote* (each AP
contributes at most its learned reliability weight to any database entry).
The kernel term is this reproduction's concrete reading of the paper's
"domain-specific lightweight scaled dot-product attention"; it is what limits
the influence an adversary gains by arbitrarily manipulating a subset of
access points (see DESIGN.md).

The architecture is deliberately lightweight (comparable to the paper's ~65k
trainable parameters / ~255 kB at float32 for a building with ~165 APs),
matching the mobile/IoT deployment budget.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..nn import Linear, Module, Parameter, ScaledDotProductAttention, Tensor, fastpath
from .embedding import CurriculumEmbedding, OriginalEmbedding

__all__ = ["CALLOCModel"]


class CALLOCModel(Module):
    """Hyperspace + scaled dot-product attention localization network.

    Parameters
    ----------
    num_aps:
        Number of visible access points (input dimensionality).
    num_classes:
        Number of reference-point classes.
    reference_features:
        Normalised clean fingerprints forming the attention database,
        shape ``(num_references, num_aps)``.  Typically one averaged scan per
        reference point.
    reference_positions:
        Coordinates (meters) of each reference entry, shape
        ``(num_references, 2)``.
    embed_dim:
        Hyperspace dimensionality (128 in the paper).
    attention_dim:
        Dimensionality of the Q/K/V projections inside the attention block.
    dropout_rate / noise_std:
        Augmentation strengths of the original-data embedding (0.2 / 0.32).
    """

    #: Gain of the identity initialisation of the final fully connected layer
    #: (see the classifier construction note in ``__init__``).
    CLASSIFIER_IDENTITY_GAIN = 20.0
    #: Initial Gaussian-kernel bandwidth of the per-AP similarity votes
    #: (normalised RSS units; 0.1 ≙ 10 dB).
    KERNEL_BANDWIDTH_INIT = 0.1
    #: Clamp range of the learnable kernel bandwidth.  The upper bound keeps
    #: the kernel selective so that large adversarial perturbations push a
    #: reading outside every reference's kernel instead of voting for a wrong
    #: reference point.
    KERNEL_BANDWIDTH_RANGE = (0.05, 0.11)

    def __init__(
        self,
        num_aps: int,
        num_classes: int,
        reference_features: np.ndarray,
        reference_positions: np.ndarray,
        reference_labels: Optional[np.ndarray] = None,
        embed_dim: int = 128,
        attention_dim: int = 64,
        dropout_rate: float = 0.2,
        noise_std: float = 0.32,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        reference_features = np.asarray(reference_features, dtype=np.float64)
        reference_positions = np.asarray(reference_positions, dtype=np.float64)
        if reference_features.ndim != 2 or reference_features.shape[1] != num_aps:
            raise ValueError(
                f"reference_features must have shape (num_references, {num_aps})"
            )
        if reference_positions.shape != (reference_features.shape[0], 2):
            raise ValueError("reference_positions must have shape (num_references, 2)")
        if reference_labels is None:
            if reference_features.shape[0] != num_classes:
                raise ValueError(
                    "reference_labels is required when the database does not hold "
                    "exactly one entry per reference-point class"
                )
            reference_labels = np.arange(num_classes)
        reference_labels = np.asarray(reference_labels, dtype=np.int64)
        if reference_labels.shape != (reference_features.shape[0],):
            raise ValueError("reference_labels must have one entry per database row")

        self.num_aps = num_aps
        self.num_classes = num_classes
        self.embed_dim = embed_dim
        self.attention_dim = attention_dim

        # Attention database (detached constants, not trainable parameters).
        self._reference_features = reference_features
        self._reference_positions = reference_positions
        self._reference_labels = reference_labels
        self._value_inputs = self._build_value_inputs(
            reference_positions, reference_labels, num_classes
        )

        # Hyperspace embedding networks (Sec. IV.B).  Both hyperspaces start
        # from identical weights so that, at initialisation, the similarity
        # between a query fingerprint and the database entries in hyperspace
        # mirrors their similarity in RSS space; training then specialises the
        # two embeddings independently.
        self.curriculum_embedding = CurriculumEmbedding(num_aps, embed_dim, rng=rng)
        self.original_embedding = OriginalEmbedding(
            num_aps, embed_dim, dropout_rate=dropout_rate, noise_std=noise_std, rng=rng
        )
        self.original_embedding.projection.weight.data = (
            self.curriculum_embedding.projection.weight.data.copy()
        )

        # Scaled dot-product attention block (Sec. IV.C).  Query and key
        # projections likewise share their initialisation so the scaled dot
        # product starts out as a genuine similarity measure.
        self.query_proj = Linear(embed_dim, attention_dim, rng=rng)
        self.key_proj = Linear(embed_dim, attention_dim, rng=rng)
        self.key_proj.weight.data = self.query_proj.weight.data.copy()
        self.attention = ScaledDotProductAttention()

        # Domain-specific bounded similarity (the "lightweight domain-specific"
        # part of the attention network).  Each access point casts a bounded
        # Gaussian-kernel vote for the database entries whose stored RSS it
        # matches; an AP whose reading has been grossly manipulated simply
        # loses its vote instead of dragging the score of a wrong reference
        # point upward.  This bounded per-AP influence is what limits the
        # damage of large-ε channel-side attacks on a subset of APs (ø < 100).
        # The per-AP reliability weights, the kernel bandwidth and the mixing
        # coefficients between the kernel votes and the hyperspace dot product
        # are all learned during curriculum training.
        self.ap_reliability = Parameter(np.zeros(num_aps), name="ap_reliability")
        self.log_bandwidth = Parameter(
            np.array([np.log(self.KERNEL_BANDWIDTH_INIT)]), name="log_bandwidth"
        )
        self.kernel_mix = Parameter(np.array([1.0]), name="kernel_mix")
        self.dot_mix = Parameter(np.array([1.0]), name="dot_mix")

        # Final fully connected layer predicting reference-point classes.  Its
        # input is the attention output: a soft combination of the database
        # entries' reference-point locations (coordinates + RP identity).  The
        # weights start as a scaled identity over the RP-identity block of V,
        # so attention mass on the correct database entry immediately
        # translates into the correct class logit; without this the double
        # softmax (attention + cross-entropy) starts with vanishing gradients
        # and the lightweight model fails to converge in the per-lesson epoch
        # budget.
        self.classifier = Linear(self._value_inputs.shape[1], num_classes, rng=rng)
        identity_init = np.zeros((self._value_inputs.shape[1], num_classes))
        identity_init[2:, :] = np.eye(num_classes) * self.CLASSIFIER_IDENTITY_GAIN
        self.classifier.weight.data = identity_init

    # ------------------------------------------------------------------
    @property
    def reference_features(self) -> np.ndarray:
        """The clean fingerprints used as the attention database."""
        return self._reference_features

    @property
    def reference_positions(self) -> np.ndarray:
        """Coordinates of the attention-database entries."""
        return self._reference_positions

    @property
    def reference_labels(self) -> np.ndarray:
        """Reference-point class of each attention-database entry."""
        return self._reference_labels

    @staticmethod
    def _normalize_positions(positions: np.ndarray) -> np.ndarray:
        """Scale reference coordinates to roughly unit range.

        The raw coordinates span tens of meters; feeding them directly into
        the attention value matrix saturates the classifier's softmax at
        initialisation and stalls training.
        """
        minimum = positions.min(axis=0)
        span = positions.max(axis=0) - minimum
        span = np.where(span <= 0, 1.0, span)
        return (positions - minimum) / span

    @classmethod
    def _build_value_inputs(
        cls, positions: np.ndarray, labels: np.ndarray, num_classes: int
    ) -> np.ndarray:
        """Attention value matrix: normalised coordinates + RP identity.

        The paper assigns "RP locations" to V.  A reference point's location
        is represented both geometrically (its coordinates, normalised) and
        categorically (a one-hot indicator of which RP class it is); the
        attention output is therefore a soft location estimate the final fully
        connected layer turns into class logits.
        """
        one_hot = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
        one_hot[np.arange(labels.shape[0]), labels] = 1.0
        return np.concatenate([cls._normalize_positions(positions), one_hot], axis=1)

    def update_reference(
        self,
        features: np.ndarray,
        positions: np.ndarray,
        labels: Optional[np.ndarray] = None,
    ) -> None:
        """Replace the attention database (e.g. after re-surveying a building)."""
        features = np.asarray(features, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.float64)
        if features.shape[1] != self.num_aps or positions.shape != (features.shape[0], 2):
            raise ValueError("replacement database has inconsistent shapes")
        if labels is None:
            if features.shape[0] != self.num_classes:
                raise ValueError("labels are required for a non per-RP database")
            labels = np.arange(self.num_classes)
        labels = np.asarray(labels, dtype=np.int64)
        self._reference_features = features
        self._reference_positions = positions
        self._reference_labels = labels
        self._value_inputs = self._build_value_inputs(positions, labels, self.num_classes)

    # ------------------------------------------------------------------
    def kernel_votes(self, inputs: Tensor) -> Tensor:
        """Bounded per-AP Gaussian-kernel similarity against the database.

        Returns pre-softmax logits of shape ``(batch, num_references)`` where
        each access point contributes at most its (softplus) reliability
        weight to any reference entry.
        """
        batch, num_aps = inputs.shape
        num_refs = self._reference_features.shape[0]
        references = Tensor(self._reference_features)
        delta = inputs.reshape(batch, 1, num_aps) - references.reshape(1, num_refs, num_aps)
        low, high = self.KERNEL_BANDWIDTH_RANGE
        bandwidth = self.log_bandwidth.clip(np.log(low), np.log(high)).exp()
        kernel = ((delta * delta) * (-0.5) / (bandwidth * bandwidth)).exp()
        # Softplus keeps reliability weights positive.
        reliability = (self.ap_reliability.exp() + 1.0).log()
        weighted = kernel * reliability.reshape(1, 1, num_aps)
        return weighted.sum(axis=2) * (1.0 / float(np.sqrt(num_aps)))

    def forward(self, inputs: Tensor) -> Tensor:
        """Return classification logits for a batch of normalised fingerprints."""
        # Q: hyperspace of the incoming (possibly attacked) fingerprints.
        h_curriculum = self.curriculum_embedding(inputs)
        # K: hyperspace of the clean offline database with augmentation.
        h_original = self.original_embedding(Tensor(self._reference_features))
        # V: reference-point locations (normalised coordinates + RP identity).
        value = Tensor(self._value_inputs)

        query = self.query_proj(h_curriculum) * self.dot_mix
        key = self.key_proj(h_original)
        bias = self.kernel_votes(inputs) * self.kernel_mix
        context = self.attention(query, key, value, bias=bias)
        return self.classifier(context)

    def _fused_operands(self) -> fastpath.CALLOCOperands:
        """Live operands of :meth:`forward` for the fused numpy kernels."""
        original = self.original_embedding
        key = fastpath.forward(
            [original.dropout, original.noise, original.projection, self.key_proj],
            self._reference_features,
        )
        return fastpath.CALLOCOperands(
            curriculum=self.curriculum_embedding.projection,
            query=self.query_proj,
            classifier=self.classifier,
            key=key,
            value=self._value_inputs,
            references=self._reference_features,
            ap_reliability=self.ap_reliability.data,
            log_bandwidth=self.log_bandwidth.data,
            bandwidth_range=self.KERNEL_BANDWIDTH_RANGE,
            kernel_mix=self.kernel_mix.data,
            dot_mix=self.dot_mix.data,
            scale=self.attention.scale,
        )

    def infer(self, inputs: np.ndarray) -> np.ndarray:
        """The logits of :meth:`forward`, bit for bit, without an autograd graph."""
        return fastpath.calloc_logits(self._fused_operands(), inputs)

    def input_gradient(self, inputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Cross-entropy gradient w.r.t. ``inputs``, bit-identical to autograd.

        Unlike ``loss.backward()`` it leaves ``param.grad`` untouched; it
        raises under ``no_grad`` just as the autograd path would.
        """
        return fastpath.calloc_input_gradient(
            self._fused_operands(), inputs, np.asarray(labels, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    def embedding_reconstruction_loss(self, inputs: Tensor) -> Tensor:
        """Combined MSE objective of both hyperspace embeddings (Sec. V.A)."""
        curriculum_loss = self.curriculum_embedding.reconstruction_loss(inputs)
        original_loss = self.original_embedding.reconstruction_loss(
            Tensor(self._reference_features)
        )
        return curriculum_loss + original_loss

    def attention_weights(self, inputs: Tensor) -> Optional[np.ndarray]:
        """Attention weights of the last forward pass (interpretability hook)."""
        self.forward(inputs)
        return self.attention.last_attention_weights

    # ------------------------------------------------------------------
    def parameter_report(self) -> Dict[str, int]:
        """Parameter breakdown mirroring the Sec. V.A budget discussion."""
        embedding = (
            self.curriculum_embedding.projection.num_parameters()
            + self.original_embedding.projection.num_parameters()
        )
        embedding_decoders = (
            self.curriculum_embedding._decoder.num_parameters()
            + self.original_embedding._decoder.num_parameters()
        )
        attention = (
            self.query_proj.num_parameters()
            + self.key_proj.num_parameters()
            + self.ap_reliability.size
            + self.log_bandwidth.size
            + self.kernel_mix.size
            + self.dot_mix.size
        )
        classifier = self.classifier.num_parameters()
        return {
            "embedding_layers": embedding,
            "embedding_decoders": embedding_decoders,
            "attention_layer": attention,
            "fully_connected": classifier,
            "total": self.num_parameters(),
        }
