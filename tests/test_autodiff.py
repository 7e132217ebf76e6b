"""Finite-difference validation of every tape op.

Each op's analytic gradient is compared against an independent central
finite-difference oracle at every input coordinate: the library's two
(training's evidence node and decoder_losses), and the ops that only
the test references use, which live in tests/reference.py.
"""
import numpy as np
import pytest

from alignrag import autodiff as ad
from alignrag import training
from alignrag.data import QASample
from alignrag.decoder import decoder_losses, decoder_shapes
from alignrag.encoder import encode_all
from alignrag.vocab import Vocabulary
import reference as ref

H = 1e-6
TOL = 1e-6


def check_grads(build, arrays, tol=TOL, h=H):
    """build(dict of Tensors) -> scalar Tensor; FD-check each array coord."""
    tensors = {name: ad.param(np.array(a, dtype=np.float64)) for name, a in arrays.items()}
    loss = build(tensors)
    ad.backward(loss)
    for name, base in arrays.items():
        base = np.array(base, dtype=np.float64)
        analytic = tensors[name].grad
        assert analytic is not None, f"no gradient reached {name}"
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = dict(arrays)
            bumped = base.copy()
            bumped[idx] += h
            plus[name] = bumped
            minus = dict(arrays)
            bumped = base.copy()
            bumped[idx] -= h
            minus[name] = bumped
            up = build({n: ad.param(np.array(a, dtype=np.float64)) for n, a in plus.items()})
            down = build({n: ad.param(np.array(a, dtype=np.float64)) for n, a in minus.items()})
            numeric = (float(up.value) - float(down.value)) / (2 * h)
            denom = max(1e-8, abs(analytic[idx]) + abs(numeric))
            assert abs(analytic[idx] - numeric) / denom < tol, (
                f"{name}{idx}: analytic {analytic[idx]} vs numeric {numeric}"
            )


@pytest.fixture
def vecs(rng):
    return {"a": rng.normal(size=5), "b": rng.normal(size=5)}


class TestElementwise:
    def test_add(self, vecs):
        check_grads(lambda t: ref.sum_all(ref.mul(ref.add(t["a"], t["b"]), t["b"])), vecs)

    def test_sub(self, vecs):
        check_grads(lambda t: ref.sum_all(ref.mul(ref.sub(t["a"], t["b"]), t["a"])), vecs)

    def test_mul(self, vecs):
        check_grads(lambda t: ref.sum_all(ref.mul(t["a"], t["b"])), vecs)

    def test_scalar_broadcast(self, rng):
        arrays = {"a": rng.normal(size=4), "s": np.array(0.7)}
        check_grads(lambda t: ref.sum_all(ref.mul(ref.add(t["a"], t["s"]), t["a"])), arrays)
        check_grads(lambda t: ref.sum_all(ref.mul(t["s"], t["a"])), arrays)

    def test_scale_and_neg(self, rng):
        arrays = {"a": rng.normal(size=5)}
        check_grads(lambda t: ref.sum_all(ref.scale(t["a"], -2.5)), arrays)
        check_grads(lambda t: ref.sum_all(ref.scale(t["a"], -1.0)), arrays)

    def test_tanh_sigmoid_exp(self, rng):
        arrays = {"a": rng.normal(size=5)}
        check_grads(lambda t: ref.sum_all(ref.tanh(t["a"])), arrays)
        check_grads(lambda t: ref.sum_all(ref.sigmoid(t["a"])), arrays)
        check_grads(lambda t: ref.sum_all(ref.exp(t["a"])), arrays)

    def test_log_sqrt_reciprocal(self, rng):
        arrays = {"a": rng.uniform(0.5, 2.0, size=5)}
        check_grads(lambda t: ref.sum_all(ref.log(t["a"])), arrays)
        check_grads(lambda t: ref.sum_all(ref.sqrt(t["a"])), arrays)
        check_grads(lambda t: ref.sum_all(ref.reciprocal(t["a"])), arrays)


class TestLinear:
    def test_matvec(self, rng):
        arrays = {"m": rng.normal(size=(3, 4)), "v": rng.normal(size=4)}
        check_grads(lambda t: ref.sum_all(ref.tanh(ref.matvec(t["m"], t["v"]))), arrays)

    def test_dot(self, vecs):
        check_grads(lambda t: ref.dot(t["a"], t["b"]), vecs)

    def test_concat(self, rng):
        arrays = {"a": rng.normal(size=3), "b": rng.normal(size=4)}
        check_grads(lambda t: ref.sum_all(ref.tanh(ref.concat(t["a"], t["b"]))), arrays)

    def test_gather_rows_with_repeats(self, rng):
        arrays = {"m": rng.normal(size=(4, 3))}
        ids = [1, 3, 1, 1]  # repeated rows must accumulate
        check_grads(lambda t: ref.sum_all(ref.tanh(ref.gather_rows(t["m"], ids))), arrays)
        # The evidence node's flattened scatter adds the same terms, in the same order.
        m, g = ad.param(arrays["m"]), rng.normal(size=(len(ids), 3))
        ad.backward(ref.sum_all(ref.mul(ref.gather_rows(m, ids), ad.const(g))))
        assert np.array_equal(training._scatter_rows(m.value.shape, ids, g), m.grad)

    def test_row_and_element(self, rng):
        arrays = {"m": rng.normal(size=(3, 4))}
        check_grads(lambda t: ref.sum_all(ref.exp(ref.row(t["m"], 2))), arrays)
        arrays = {"v": rng.normal(size=5)}
        check_grads(lambda t: ref.exp(ref.element(t["v"], 3)), arrays)

    def test_vecmat(self, rng):
        arrays = {"v": rng.normal(size=3), "m": rng.normal(size=(3, 4))}
        check_grads(lambda t: ref.sum_all(ref.tanh(ref.vecmat(t["v"], t["m"]))), arrays)

    def test_segment_mean_single_segment_and_sum_all(self, rng):
        arrays = {"m": rng.normal(size=(4, 3))}
        check_grads(lambda t: ref.sum_all(ref.tanh(ref.segment_mean(t["m"], [4]))), arrays)

    def test_segment_mean_of_gathered_rows(self, rng):
        arrays = {"m": rng.normal(size=(5, 3)), "w": rng.normal(size=(4, 3))}
        ids = [2, 0, 2, 4, 2, 1, 3]  # row 2 repeats within and across segments
        lengths = [1, 3, 1, 2]  # two one-token segments
        check_grads(
            lambda t: ref.sum_all(
                ref.mul(ref.segment_mean(ref.gather_rows(t["m"], ids), lengths), t["w"])
            ),
            arrays,
        )
        got = ref.segment_mean(ad.const(arrays["m"][ids]), lengths).value
        bounds = np.cumsum([0] + lengths)
        expected = [arrays["m"][ids[a:b]].mean(axis=0) for a, b in zip(bounds, bounds[1:])]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("lengths", [[2, 0, 2], [2, 1], [2, 3], []])
    def test_segment_mean_rejects_bad_segments(self, lengths):
        with pytest.raises(ValueError):
            ref.segment_mean(ad.const(np.ones((4, 2))), lengths)

    def test_stack(self, rng):
        arrays = {"a": rng.normal(size=3), "b": rng.normal(size=3), "w": rng.normal(size=(3, 3))}
        check_grads(
            lambda t: ref.sum_all(ref.mul(ref.tanh(ref.stack([t["a"], t["b"], t["a"]])), t["w"])),
            arrays,
        )


class TestDecoderLosses:
    """The decoder's op: teacher-forced decoding of a padded minibatch."""

    V, D, HID = 9, 3, 2
    # Lengths 1, 2 and 4: the batch is padded to 5 steps and masked.
    ANSWERS = [[5], [6, 4], [7, 8, 5, 6]]

    def arrays(self, rng):
        """Every decoder parameter, plus the stacked q and e, drawn at random (biases too)."""
        shapes = decoder_shapes(self.V, self.D, self.HID)
        shapes["qe"] = (2, len(self.ANSWERS), self.D)
        return {name: rng.normal(scale=0.5, size=shape) for name, shape in shapes.items()}

    def test_finite_differences_for_every_input(self, rng):
        arrays = self.arrays(rng)
        # Distinct weights on every sample's NLL and consistency terms.
        w = ad.const(rng.normal(size=(2, len(self.ANSWERS))))
        # The loss sums a dozen log-softmax terms, so central-difference
        # round-off reaches 1e-6 of the smallest (1e-4) gradients: tol 1e-5.
        check_grads(
            lambda t: ref.sum_all(
                ref.mul(decoder_losses(t, t["qe"], self.ANSWERS, 1e-12), w)
            ),
            arrays,
            tol=1e-5,
        )

    def test_padding_changes_no_sample(self, rng):
        arrays = self.arrays(rng)
        t = {name: ad.const(arr) for name, arr in arrays.items()}
        batched = decoder_losses(t, t["qe"], self.ANSWERS, 1e-12).value
        for b, answer in enumerate(self.ANSWERS):
            qe = ad.const(arrays["qe"][:, b : b + 1])
            alone = decoder_losses(t, qe, [answer], 1e-12).value[:, 0]
            np.testing.assert_allclose(batched[:, b], alone, rtol=0, atol=1e-15)


class TestEvidenceNode:
    """training's evidence node: a minibatch's q and e from the encoder's table, in one node."""

    CONTEXT = [
        ("brick", ["the brick is red"]),
        ("sky", ["the sky is blue", "it is high"]),
        ("grass", ["the grass is green"]),
        ("sea", ["the sea is wide and deep"]),
        ("ocean", ["the sea is wide and deep"]),  # one row: two chunks that tie exactly
    ]

    def setup(self, rng, differentiable):
        """Three samples that share chunk rows; sample b asks a chunk's text, so one
        row is both a question and a chunk. The third has one chunk, the others keep 3."""
        samples = [
            QASample("a", "how wide and deep is the sea", "wide", self.CONTEXT, [("sea", 0)]),
            QASample("b", "the sky is blue it is high", "blue", self.CONTEXT, [("sky", 0)]),
            QASample("c", "where is the grass", "green", self.CONTEXT[2:3], [("grass", 0)]),
        ]
        config = training.TrainConfig(
            dim=4, top_k=3, beta=1.7, include_title=False, differentiable_weights=differentiable
        )
        vocab = Vocabulary.from_texts(training._dataset_texts(samples), hash_buckets=2)
        preps = training._prepare_samples(samples, vocab, config)
        table = rng.normal(scale=0.5, size=(vocab.size, config.dim))
        token_ids, slots = training._layout(preps)
        q_at, picked, *_ = training._weighed(preps, encode_all(table, token_ids), slots, config)
        assert len(set(picked)) < len(picked) and set(q_at) & set(picked)
        return preps, config, table, rng.normal(size=(2, len(samples), config.dim))

    def test_finite_differences_with_differentiable_weights(self, rng):
        preps, config, table, w = self.setup(rng, True)
        check_grads(
            lambda t: ref.sum_all(
                ref.mul(training._evidence(preps, t["enc_embed"], config), ad.const(w))
            ),
            {"enc_embed": table},
        )

    def test_fixed_weights_are_constants(self, rng):
        preps, config, table, w = self.setup(rng, False)
        embed = ad.param(table)
        qe = training._evidence(preps, embed, config)
        ad.backward(qe, w)
        # The weights and picked rows at the table's values, from the numpy selection.
        token_ids, slots = training._layout(preps)
        rows = encode_all(table, token_ids)
        q_at, picked, counts, alpha, e = training._weighed(preps, rows, slots, config)
        assert np.array_equal(qe.value, np.stack([rows[q_at], e]))
        starts = np.cumsum(counts) - counts

        def loss(tab):
            rows = encode_all(tab, token_ids)
            held = np.add.reduceat(alpha[:, None] * rows[picked], starts, axis=0)
            return np.sum(w * np.stack([rows[q_at], held]))

        # The table's gradient is the finite difference of q and e with the weights held.
        for idx in np.ndindex(*table.shape):
            bump = np.zeros_like(table)
            bump[idx] = H
            numeric = (loss(table + bump) - loss(table - bump)) / (2 * H)
            denom = max(1e-8, abs(embed.grad[idx]) + abs(numeric))
            assert abs(embed.grad[idx] - numeric) / denom < TOL, idx


class TestComposite:
    def test_l2_normalize(self, rng):
        arrays = {"v": rng.normal(size=5), "w": rng.normal(size=5)}
        check_grads(lambda t: ref.dot(ref.l2_normalize(t["v"]), t["w"]), arrays)

    def test_l2_normalize_rows(self, rng):
        arrays = {"m": rng.normal(size=(3, 5)), "w": rng.normal(size=(3, 5))}
        check_grads(lambda t: ref.sum_all(ref.mul(ref.l2_normalize_rows(t["m"]), t["w"])), arrays)
        got = ref.l2_normalize_rows(ad.const(arrays["m"])).value
        for row, v in zip(got, arrays["m"]):
            np.testing.assert_allclose(row, ref.l2_normalize(ad.const(v)).value, atol=1e-15)

    def test_log_softmax(self, rng):
        arrays = {"v": rng.normal(size=6)}
        check_grads(lambda t: ref.element(ref.log_softmax(t["v"]), 2), arrays)

    def test_softmax(self, rng):
        arrays = {"v": rng.normal(size=6)}
        check_grads(lambda t: ref.element(ref.softmax(t["v"]), 4), arrays)

    def test_softmax_values(self, rng):
        v = rng.normal(size=7)
        got = ref.softmax(ad.const(v)).value
        expected = np.exp(v - v.max())
        expected /= expected.sum()
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert abs(got.sum() - 1.0) < 1e-12

    def test_diamond_graph_accumulates(self, rng):
        # a feeds the loss along two paths; grads must sum.
        arrays = {"a": rng.normal(size=4)}
        check_grads(lambda t: ref.dot(ref.tanh(t["a"]), ref.exp(t["a"])), arrays)


class TestMechanics:
    def test_backward_requires_scalar(self, rng):
        t = ad.param(rng.normal(size=3))
        with pytest.raises(ValueError):
            ad.backward(ref.tanh(t))

    def test_seed_must_have_the_roots_shape(self, rng):
        root = ref.tanh(ad.param(rng.normal(size=(2, 3))))
        for shape in [(), (3,), (3, 2), (2, 3, 1)]:
            with pytest.raises(ValueError):
                ad.backward(root, np.ones(shape))

    def test_seed_weighs_a_non_scalar_root(self, rng):
        a, w = ad.param(rng.normal(size=(2, 3))), rng.normal(size=(2, 3))
        ad.backward(ref.tanh(a), w)
        seeded = a.grad
        ad.backward(ref.sum_all(ref.mul(ref.tanh(a), ad.const(w))))
        assert np.array_equal(seeded, a.grad)

    def test_detach_stops_gradient(self, rng):
        a = ad.param(rng.normal(size=3))
        loss = ref.dot(ref.detach(a), a)
        ad.backward(loss)
        # Gradient flows only through the non-detached branch.
        np.testing.assert_allclose(a.grad, a.value, atol=1e-12)

    def test_const_requires_no_grad(self):
        c = ad.const(np.ones(3))
        assert not c.requires_grad
        p = ad.param(np.ones(3))
        assert p.requires_grad
        assert ref.add(c, p).requires_grad

    def test_grad_accumulation_reset_between_backwards(self, rng):
        a = ad.param(rng.normal(size=3))
        loss = ref.sum_all(ref.mul(a, a))
        ad.backward(loss)
        first = a.grad.copy()
        ad.backward(loss)
        np.testing.assert_allclose(a.grad, first, atol=1e-12)
