import dataclasses

import pytest

from alignrag.data import SyntheticSpec, generate_synthetic
from alignrag.errors import EmptyScores
from alignrag.evaluation import (
    checkpoint_fingerprint,
    evaluate,
    report_to_json,
    sweep_alignment_weight,
    sweep_to_csv,
    sweep_to_json,
    sweep_to_svg,
    sweep_top_k,
)
from alignrag.training import TrainConfig, train


@pytest.fixture(scope="module")
def trained():
    samples, _ = generate_synthetic(
        SyntheticSpec(seed=21, n_samples=4, n_gold_evidence=1, n_distractors=4)
    )
    config = TrainConfig(
        seed=0, dim=12, hidden=10, learning_rate=0.02, epochs=15, batch_size=4, top_k=3
    )
    return samples, train(samples, config)


class TestEvaluate:
    def test_report_structure_and_attribution(self, trained):
        samples, ckpt = trained
        report = evaluate(samples, ckpt)
        assert report.metrics.n_samples == len(samples)
        assert report.checkpoint_fingerprint == checkpoint_fingerprint(ckpt)
        assert report.config == ckpt.config.as_dict()
        assert report.n_failures == 0
        for rec in report.samples:
            assert not rec["retrieval_failure"]
            assert 1 <= len(rec["retrieved"]) <= ckpt.config.top_k
            alpha_sum = sum(r["alpha"] for r in rec["retrieved"])
            assert alpha_sum == pytest.approx(1.0, abs=1e-9)
            ranks_scores = [r["score"] for r in rec["retrieved"]]
            assert ranks_scores == sorted(ranks_scores, reverse=True)
            assert rec["consistency"] >= 0.0

    def test_deterministic_output(self, trained):
        samples, ckpt = trained
        a = report_to_json(evaluate(samples, ckpt))
        b = report_to_json(evaluate(samples, ckpt))
        assert a == b

    def test_fingerprint_tracks_parameters(self, trained):
        samples, ckpt = trained
        fp = checkpoint_fingerprint(ckpt)
        mutated = dataclasses.replace(ckpt, params={**ckpt.params})
        mutated.params["b_out"] = ckpt.params["b_out"] + 1.0
        assert checkpoint_fingerprint(mutated) != fp

    def test_retrieval_failure_path(self, trained):
        samples, ckpt = trained
        config = dataclasses.replace(ckpt.config, tau=2.0)  # cosine can't reach 2
        report = evaluate(samples, ckpt, config)
        assert report.n_failures == len(samples)
        assert report.metrics.em == 0.0
        assert report.mean_consistency is None
        for rec in report.samples:
            assert rec["retrieval_failure"]
            assert rec["generated"] == ""

    def test_failure_record_scored_like_corpus(self, trained):
        # "The" normalises to an empty answer, which the empty prediction matches.
        samples, ckpt = trained
        sample = dataclasses.replace(samples[0], answer="The")
        report = evaluate([sample], ckpt, dataclasses.replace(ckpt.config, tau=2.0))
        rec = report.samples[0]
        assert rec["retrieval_failure"]
        assert (rec["em"], rec["f1"]) == (1, 1.0)
        m = report.metrics
        assert [100 * rec[k] for k in ("em", "f1", "bleu", "rouge_l")] == [m.em, m.f1, m.bleu, m.rouge_l]

    def test_empty_dataset_rejected(self, trained):
        _, ckpt = trained
        with pytest.raises(EmptyScores):
            evaluate([], ckpt)

    def test_config_override_is_used(self, trained):
        samples, ckpt = trained
        override = dataclasses.replace(ckpt.config, beta=0.0, top_k=1)
        report = evaluate(samples, ckpt, override)
        assert report.config["beta"] == 0.0
        for rec in report.samples:
            assert len(rec["retrieved"]) == 1
            assert rec["retrieved"][0]["alpha"] == pytest.approx(1.0)


class TestSweeps:
    def test_beta_sweep_isolates_one_parameter(self, trained):
        samples, ckpt = trained
        sweep = sweep_alignment_weight(samples, ckpt, [0.0, 1.0, 4.0])
        assert sweep.param_name == "beta"
        assert sweep.grid == [0.0, 1.0, 4.0]
        for beta, report in zip(sweep.grid, sweep.reports):
            assert report.config["beta"] == beta
            rest = {k: v for k, v in report.config.items() if k != "beta"}
            base = {k: v for k, v in ckpt.config.as_dict().items() if k != "beta"}
            assert rest == base

    def test_beta_point_matches_direct_evaluate(self, trained):
        samples, ckpt = trained
        sweep = sweep_alignment_weight(samples, ckpt, [0.0, 1.0, 4.0])
        direct = evaluate(samples, ckpt, dataclasses.replace(ckpt.config, beta=1.0))
        assert report_to_json(sweep.reports[1]) == report_to_json(direct)

    def test_k_sweep_isolates_one_parameter(self, trained):
        samples, ckpt = trained
        sweep = sweep_top_k(samples, ckpt, [1, 2, 4])
        assert sweep.param_name == "top_k"
        for k, report in zip(sweep.grid, sweep.reports):
            assert report.config["top_k"] == k

    def test_grid_validation(self, trained):
        samples, ckpt = trained
        with pytest.raises(ValueError):
            sweep_alignment_weight(samples, ckpt, [0.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            sweep_alignment_weight(samples, ckpt, [0.5, 1.0, 2.0])  # must start at 0
        with pytest.raises(ValueError):
            sweep_alignment_weight(samples, ckpt, [0.0, 1.0])  # too short
        with pytest.raises(ValueError):
            sweep_top_k(samples, ckpt, [0, 1, 2])  # k must be >= 1
        with pytest.raises(ValueError):
            sweep_top_k(samples, ckpt, [2, 2, 3])  # strictly increasing


class TestSerialization:
    @staticmethod
    @pytest.fixture(scope="class")
    def sweep(trained):
        samples, ckpt = trained
        return sweep_alignment_weight(samples, ckpt, [0.0, 1.0, 4.0])

    def test_json_deterministic(self, sweep):
        assert sweep_to_json(sweep) == sweep_to_json(sweep)
        assert sweep_to_json(sweep).endswith("\n")

    def test_csv_shape(self, sweep):
        lines = sweep_to_csv(sweep).strip().split("\n")
        assert lines[0] == "beta,em,f1,bleu,rouge_l,mean_consistency"
        assert len(lines) == 1 + len(sweep.grid)
        for line in lines[1:]:
            assert len(line.split(",")) == 6

    def test_svg_well_formed(self, sweep):
        svg = sweep_to_svg(sweep)
        assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
        assert "polyline" in svg
        assert sweep_to_svg(sweep) == svg  # deterministic
